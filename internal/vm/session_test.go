// Session tests over the real workloads: burst determinism, the
// machine report with the fast path on and off, and job hand-off
// between machines. The file is an external test package because the
// workloads package imports vm.
package vm_test

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/isa"
	"herajvm/internal/vm"
	"herajvm/internal/workloads"
)

// burstEntries is the interleaved compress/mandelbrot submission script
// the determinism contract is tested against.
func burstEntries() []workloads.MixEntry {
	var entries []workloads.MixEntry
	for i := 0; i < 3; i++ {
		entries = append(entries,
			workloads.MixEntry{Spec: workloads.Compress(), Threads: 2, Scale: 1},
			workloads.MixEntry{Spec: workloads.Mandelbrot(), Threads: 2, Scale: 1},
		)
	}
	return entries
}

// runBurst boots a fresh ppe:1,spe:4,vpu:2 machine, submits the interleaved burst at a 250k-cycle cadence,
// drains it, and returns per-job (cycles, checksum, migrations,
// steals, compiles) plus the rendered machine report.
func runBurst(t *testing.T) ([]string, string) {
	t.Helper()
	entries := burstEntries()
	prog, err := workloads.BuildMix(entries)
	if err != nil {
		t.Fatal(err)
	}
	cfg := vm.DefaultConfig()
	cfg.Machine.Topology = cell.Topology{
		{Kind: isa.PPE, Count: 1}, {Kind: isa.SPE, Count: 4}, {Kind: isa.VPU, Count: 2},
	}
	v, err := vm.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*vm.Job, len(entries))
	for i, e := range entries {
		jobs[i], _, err = v.Submit(vm.JobSpec{
			Class:   e.MainClassOf(i),
			Method:  "main",
			Arrival: uint64(i) * 250_000,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Drain(); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for i, j := range jobs {
		res, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		e := entries[i]
		if got := int32(uint32(res.Value)); got != e.Spec.Reference(e.Threads, e.Scale) {
			t.Errorf("job %d (%s) checksum = %d, want the reference", i, e.Spec.Name, got)
		}
		lines = append(lines, fmt.Sprintf("job %d: cycles=%d sum=%d mig=%d steals=%d compiles=%d",
			i, res.Cycles, int32(uint32(res.Value)), res.Migrations, res.Steals, res.Compiles))
	}
	return lines, v.Report()
}

// TestSessionBurstDeterminism replays an interleaved burst of
// compress and mandelbrot jobs twice on ppe:1,spe:4,vpu:2: per-job cycle counts and the full machine report
// must be byte-identical — the session's determinism contract
// (admission ordered by arrival cycle and submission sequence; the
// machine's stepping independent of where the driving loop pauses).
func TestSessionBurstDeterminism(t *testing.T) {
	lines1, report1 := runBurst(t)
	lines2, report2 := runBurst(t)
	for i := range lines1 {
		if lines1[i] != lines2[i] {
			t.Errorf("per-job accounting diverged:\n  %s\n  %s", lines1[i], lines2[i])
		}
	}
	if report1 != report2 {
		t.Errorf("machine reports diverged:\n--- first ---\n%s\n--- second ---\n%s", report1, report2)
	}
}

var ffClause = regexp.MustCompile(` ff blocks/instrs=\d+/\d+`)

// TestReportIdenticalDisableSuperblocks runs a real workload with the
// fast path on and off and requires the full machine reports to be
// byte-identical once the fast-forward clause (the only counter that
// records which path executed) is stripped.
func TestReportIdenticalDisableSuperblocks(t *testing.T) {
	run := func(disable bool) string {
		spec := workloads.All()[0] // compress
		prog, err := spec.Build(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := vm.DefaultConfig()
		cfg.Machine.MainMemory = 32 << 20
		cfg.HeapBytes = 8 << 20
		cfg.DisableSuperblocks = disable
		v, err := vm.New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		j, _, err := v.Submit(vm.JobSpec{Class: spec.MainClass, Method: "main"})
		if err == nil {
			_, err = j.Wait()
		}
		if err != nil {
			t.Fatal(err)
		}
		return v.Report()
	}
	fast, slow := run(false), run(true)
	if !strings.Contains(fast, "ff blocks/instrs=") {
		t.Error("fast run's report shows no fast-forwarding")
	}
	if strings.Contains(slow, "ff blocks/instrs=") {
		t.Error("disabled run's report shows fast-forwarding")
	}
	if f, s := ffClause.ReplaceAllString(fast, ""), ffClause.ReplaceAllString(slow, ""); f != s {
		t.Errorf("reports diverge beyond the ff clause:\n--- fast ---\n%s\n--- slow ---\n%s", f, s)
	}
}

// handoffConfig is the machine both ends of the hand-off tests boot:
// identical topology, so only the hand-off itself can perturb the
// outcome.
func handoffConfig() vm.Config {
	cfg := vm.DefaultConfig()
	cfg.Machine.Topology = cell.PS3Topology(4)
	return cfg
}

// TestHandoffDifferentialAcrossWorkloads is the property test over the
// real paper workloads: freeze each one mid-run on a source machine,
// rehydrate the image on an identically configured fresh machine, and
// require the checksum and output to match a never-frozen control run.
func TestHandoffDifferentialAcrossWorkloads(t *testing.T) {
	for _, spec := range workloads.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			entries := []workloads.MixEntry{{Spec: spec, Threads: 2, Scale: 1}}
			prog, err := workloads.BuildMix(entries)
			if err != nil {
				t.Fatal(err)
			}
			req := vm.JobSpec{Class: entries[0].MainClassOf(0), Method: "main"}
			want := spec.Reference(2, 1)

			// Control: never frozen.
			control, err := vm.New(handoffConfig(), prog)
			if err != nil {
				t.Fatal(err)
			}
			cj, _, err := control.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			cres, err := cj.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if got := int32(uint32(cres.Value)); got != want {
				t.Fatalf("control checksum = %d, want %d", got, want)
			}

			// Freeze mid-run at the first cycle the job hasn't beaten.
			var img *vm.JobImage
			for _, cycle := range []cell.Clock{cres.CompletedAt / 2, cres.CompletedAt / 4, 10_000, 0} {
				src, err := vm.New(handoffConfig(), prog)
				if err != nil {
					t.Fatal(err)
				}
				j, _, err := src.Submit(req)
				if err != nil {
					t.Fatal(err)
				}
				if err := src.RunUntil(cycle); err != nil {
					t.Fatal(err)
				}
				img, err = src.Freeze(context.Background(), j)
				if errors.Is(err, vm.ErrJobDone) {
					continue
				}
				if err != nil {
					t.Fatalf("freeze at %d: %v", cycle, err)
				}
				if _, err := j.Wait(); !errors.Is(err, vm.ErrFrozen) {
					t.Fatalf("Wait on frozen job = %v, want ErrFrozen", err)
				}
				if err := src.Drain(); err != nil {
					t.Fatalf("source drain after freeze: %v", err)
				}
				break
			}
			if img == nil {
				t.Fatal("every freeze point landed after job completion")
			}

			dst, err := vm.New(handoffConfig(), prog)
			if err != nil {
				t.Fatal(err)
			}
			dj, err := dst.Rehydrate(img, 0, req)
			if err != nil {
				t.Fatalf("rehydrate: %v", err)
			}
			res, err := dj.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if got := int32(uint32(res.Value)); got != want {
				t.Errorf("checksum after hand-off = %d, want %d", got, want)
			}
			if res.Output != cres.Output {
				t.Errorf("output after hand-off = %q, want %q", res.Output, cres.Output)
			}
			if res.AdmittedAt != cres.AdmittedAt {
				t.Errorf("admission cycle changed across hand-off: %d vs %d",
					res.AdmittedAt, cres.AdmittedAt)
			}
		})
	}
}

// TestFreezeCancelledSystemDrains is the Drain-path regression: a
// cancelled freeze leaves the job runnable, and a machine whose job was
// frozen away still drains cleanly (the frozen job is excluded from
// the pending count rather than wedging Drain forever).
func TestFreezeCancelledSystemDrains(t *testing.T) {
	spec := workloads.Compress()
	entries := []workloads.MixEntry{{Spec: spec, Threads: 2, Scale: 1}}
	prog, err := workloads.BuildMix(entries)
	if err != nil {
		t.Fatal(err)
	}
	req := vm.JobSpec{Class: entries[0].MainClassOf(0), Method: "main"}

	v, err := vm.New(handoffConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := v.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.RunUntil(10_000); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := v.Freeze(ctx, j); !errors.Is(err, context.Canceled) {
		t.Fatalf("freeze under cancelled ctx = %v, want context.Canceled", err)
	}
	if err := v.Drain(); err != nil {
		t.Fatalf("drain after aborted freeze: %v", err)
	}
	res, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := int32(uint32(res.Value)); got != spec.Reference(2, 1) {
		t.Errorf("checksum after aborted freeze = %d, want %d", got, spec.Reference(2, 1))
	}
}
