package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"herajvm/internal/cell"
)

// kernelsQuickOpt shrinks every kernel workload to scale 1 so the
// figure smoke-tests quickly; the full-scale run is the bench gate's
// job.
func kernelsQuickOpt() Options {
	return Options{ScaleOverride: map[string]int{"matmul": 1, "nbody": 1, "kmeans": 1}}
}

// TestRunKernelsDifferentialAndGate: the quick sweep must produce a
// valid row per (workload, topology), bill staging DMA everywhere, and
// pass its own gate at a floor every topology clears at scale 1.
func TestRunKernelsDifferentialAndGate(t *testing.T) {
	s, err := RunKernels(kernelsQuickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 6 {
		t.Fatalf("got %d rows, want 3 workloads x 2 topologies", len(s.Rows))
	}
	for _, r := range s.Rows {
		if !r.Valid {
			t.Errorf("%s on %s: invalid (checksum %d)", r.Workload, r.Topology, r.Checksum)
		}
		if r.DMABytes == 0 || r.Workers == 0 {
			t.Errorf("%s on %s: workers=%d dma=%d, want both nonzero",
				r.Workload, r.Topology, r.Workers, r.DMABytes)
		}
	}
	if err := s.Check(Options{MinSpeedup: 1.0}); err != nil {
		t.Errorf("gate failed at a 1.0x floor: %v", err)
	}
	if err := s.Check(Options{MinSpeedup: 1e9}); err == nil {
		t.Error("gate passed an impossible floor")
	}
}

// TestRunKernelsPoolChoice: the reported pool must follow the planner —
// SPEs on the PS3 baseline, VPUs on the three-kind machine.
func TestRunKernelsPoolChoice(t *testing.T) {
	s, err := RunKernels(kernelsQuickOpt())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		cell.PS3Topology(6).String():    "spe",
		DefaultServeTopology().String(): "vpu",
	}
	for _, r := range s.Rows {
		if r.Pool != want[r.Topology] {
			t.Errorf("%s on %s: pool %q, want %q", r.Workload, r.Topology, r.Pool, want[r.Topology])
		}
	}
}

// TestServeMixesKernelJobs: kernel workloads resolve through the serve
// driver's job mix (the workloads.ByName fallback), running forRange
// launches open-loop beside the paper workloads with checksums intact.
func TestServeMixesKernelJobs(t *testing.T) {
	opt := Options{
		Scheduler:      "migrate",
		ServeJobs:      6,
		ServeWorkloads: []string{"compress", "matmul", "kmeans"},
	}
	s, err := RunServe(opt)
	if err != nil {
		t.Fatal(err)
	}
	kernelJobs := 0
	for _, r := range s.Runs {
		if !r.AllValid {
			t.Errorf("%s shed=%v: a job checksum diverged from its reference", r.Scheduler, r.Shedding)
		}
		for _, j := range r.Jobs {
			if j.Workload == "matmul" || j.Workload == "kmeans" {
				kernelJobs++
			}
		}
	}
	if kernelJobs == 0 {
		t.Error("no kernel jobs entered the serve mix")
	}
}

// TestRunKernelsDeterministicReplay: the whole figure — table and JSON
// bytes included — replays identically, the property the CI
// double-replay diff gate asserts from the outside.
func TestRunKernelsDeterministicReplay(t *testing.T) {
	s1, err := RunKernels(kernelsQuickOpt())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := RunKernels(kernelsQuickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if s1.Table() != s2.Table() {
		t.Errorf("table drifted between replays:\n%s\nvs\n%s", s1.Table(), s2.Table())
	}
	j1, err := json.Marshal(s1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(s2)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Error("JSON drifted between replays")
	}
	if !strings.Contains(s1.Table(), "matmul") || !strings.Contains(s1.Table(), "vpu") {
		t.Errorf("table missing expected rows:\n%s", s1.Table())
	}
}
