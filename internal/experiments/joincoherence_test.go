package experiments

import (
	"testing"

	"herajvm/internal/vm"
	"herajvm/internal/workloads"
)

// TestMigrateJoinCoherence is the regression test for a software-cache
// coherence hole on the join edge: a joiner that migrated to a
// local-store core could wake from join without an acquire-purge and
// read a stale clean copy of the workload's Counter.total — left in
// that core's data cache by a worker that ran (and published) there
// earlier — dropping the remaining workers' contributions from the
// checksum. The minimal reproducer is four poisson-spaced serve jobs
// on the kind-imbalanced serve topology:
// the mandelbrot main migrates once and, before the fix, returned
// exactly worker 0's partial sum. Termination's release half (flush
// the retiring core) is exercised by the same run.
func TestMigrateJoinCoherence(t *testing.T) {
	arrivals, err := Arrivals("poisson", 1, 4, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	specs := workloads.All()
	entries := make([]workloads.MixEntry, len(arrivals))
	for i := range entries {
		spec := specs[i%len(specs)]
		entries[i] = workloads.MixEntry{Spec: spec, Threads: serveThreads, Scale: serveScales[spec.Name]}
	}
	prog, err := workloads.BuildMix(entries)
	if err != nil {
		t.Fatal(err)
	}
	cfg := vm.DefaultConfig()
	cfg.Machine.Topology = DefaultServeTopology()
	sys, err := vm.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*vm.Job, len(entries))
	for i, e := range entries {
		jobs[i], _, err = sys.Submit(vm.JobSpec{
			Class: e.MainClassOf(i), Method: "main", Arrival: arrivals[i],
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	for i, job := range jobs {
		res, err := job.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		e := entries[i]
		if got, want := int32(uint32(res.Value)), e.Spec.Reference(e.Threads, e.Scale); got != want {
			t.Errorf("job %d (%s): checksum %d, want %d (migrations=%d)",
				i, e.Spec.Name, got, want, res.Migrations)
		}
	}
}
