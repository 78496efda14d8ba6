package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
	"herajvm/internal/vm"
	"herajvm/internal/workloads"
)

// kernelsQuickOpt shrinks every kernel workload to scale 1 so the
// figure smoke-tests quickly; TestFigures runs it at its own sizes.
func kernelsQuickOpt() Options {
	return Options{ScaleOverride: map[string]int{"matmul": 1, "nbody": 1, "kmeans": 1}}
}

// TestRunKernelsDifferentialAndGate: the sweep at the figure's own
// sizes must produce a valid row per (workload, machine) — the four
// shapes and their three further sub-machines — stage tiles on every
// local-store pool it ran on, divide by the one scalar run per kernel
// (every default shape's PPE groups are ppe:1), and pass its
// own Check: matmul at least 2x its scalar twin on every shape, every
// shape within 1.02x of its best sub-machine, and matmul and nbody on
// the three-kind shapes within 0.80x.
func TestRunKernelsDifferentialAndGate(t *testing.T) {
	s, err := RunKernels(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 21 {
		t.Fatalf("got %d rows, want 3 workloads x (4 shapes + 3 references)", len(s.Rows))
	}
	for _, r := range s.Rows {
		if !r.Valid {
			t.Errorf("%s on %s: invalid (checksum %d)", r.Workload, r.Topology, r.Checksum)
		}
		if r.Workers == 0 || (r.DMABytes == 0) != (r.Pool == "ppe") {
			t.Errorf("%s on %s: workers=%d dma=%d on a %s pool, want workers, and DMA off the PPE",
				r.Workload, r.Topology, r.Workers, r.DMABytes, r.Pool)
		}
		if want := strings.TrimPrefix(strings.TrimPrefix(r.Pool, "ppe"), "+"); r.Staged != want {
			t.Errorf("%s on %s: staged on %q, want every local-store kind of %q", r.Workload, r.Topology, r.Staged, r.Pool)
		}
		if first := s.Rows[0]; r.Workload == first.Workload && r.ScalarCycles != first.ScalarCycles {
			t.Errorf("%s on %s: scalar %d cycles, want the one scalar run's %d",
				r.Workload, r.Topology, r.ScalarCycles, first.ScalarCycles)
		}
	}
	if err := s.Check(Options{}); err != nil {
		t.Errorf("gate failed at the figure's own sizes: %v", err)
	}
}

// TestRunKernelsPoolChoice: the reported pool is the set of kinds the
// launch ran on, and each job, alone on its machine, splits its launch
// over every kind the machine has — the shapes and the references.
func TestRunKernelsPoolChoice(t *testing.T) {
	s, err := RunKernels(kernelsQuickOpt())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Rows {
		topo, err := cell.ParseTopology(r.Topology)
		if err != nil {
			t.Fatal(err)
		}
		var want isa.KindSet
		for _, g := range topo {
			want = want.With(g.Kind)
		}
		if w := strings.ToLower(want.String()); r.Pool != w {
			t.Errorf("%s on %s: pool %q, want %q", r.Workload, r.Topology, r.Pool, w)
		}
	}
}

// TestRunKernelsPlansPPEHeavyShapes: where a PPE pool competes with
// local-store pools, the plan still takes at most planSlack times its
// best sub-machine — the price charges each kind's memory hits, which
// the PPE's hardware cache serves cheaper than a software cache probe.
func TestRunKernelsPlansPPEHeavyShapes(t *testing.T) {
	opt := kernelsQuickOpt()
	for _, shape := range []string{"ppe:4,spe:3", "ppe:2,spe:2,vpu:1"} {
		topo, err := cell.ParseTopology(shape)
		if err != nil {
			t.Fatal(err)
		}
		opt.Topologies = append(opt.Topologies, topo)
	}
	s, err := RunKernels(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Check(opt); err != nil {
		t.Error(err)
	}
}

// TestScalarTwinStaysOnThePPE: the figure runs each kernel's scalar
// twin once per set of PPE groups, on those groups alone, and divides
// every row with those groups by it. That holds because the twin's one
// thread never leaves the PPE: on each default shape and both PPE-heavy
// ones it takes the cycles it takes on the PPE groups alone, and
// migrates nowhere.
func TestScalarTwinStaysOnThePPE(t *testing.T) {
	var arms []arm
	for _, shape := range []string{"ppe:1", "ppe:1,spe:6", "ppe:1,spe:4,vpu:2", "ppe:1,spe:2,vpu:2", "ppe:1,vpu:2",
		"ppe:4", "ppe:4,spe:3", "ppe:2", "ppe:2,spe:2,vpu:1"} {
		topo, err := cell.ParseTopology(shape)
		if err != nil {
			t.Fatal(err)
		}
		arms = append(arms, on(shape, topo, 0))
	}
	for _, k := range workloads.Kernels() {
		want := k.Reference(0, k.DefaultScale)
		b := bench{name: k.Name + "/" + k.ScalarClass, entry: k.ScalarClass,
			build: func(threads int) (*classfile.Program, error) { return k.Build(threads, k.DefaultScale) },
			want:  func(int) int32 { return want }}
		runs, err := grid(Options{}, "kernels", []bench{b}, arms)
		if err != nil {
			t.Fatal(err)
		}
		alone := map[string]uint64{}
		for _, r := range runs[0] {
			topo, _ := cell.ParseTopology(r.Topology)
			ppe := poolReferences(topo)[0].String()
			if r.Topology == ppe {
				alone[ppe] = r.Cycles
			}
			if !r.Valid || r.Cycles != alone[ppe] || r.All.MigrationsIn != 0 {
				t.Errorf("%s scalar on %s: %d cycles, %d migrations, valid %v; want %s's %d cycles, none, valid",
					k.Name, r.Topology, r.Cycles, r.All.MigrationsIn, r.Valid, ppe, alone[ppe])
			}
		}
	}
}

// TestKernelBesideAnotherJobTakesOnePool: a launch made while another
// job is admitted — the serve path — runs on the one pool predicted to
// finish the body first: the four SPEs over the two VPUs on
// ppe:1,spe:4,vpu:2, and on ppe:1,spe:2,vpu:2 the two VPUs over two
// SPEs for the FP-heavy matmul and nbody but not for the branchy kmeans.
func TestKernelBesideAnotherJobTakesOnePool(t *testing.T) {
	for _, tc := range []struct {
		shape string
		want  map[string]isa.CoreKind
	}{
		{"ppe:1,spe:4,vpu:2", map[string]isa.CoreKind{"matmul": isa.SPE, "nbody": isa.SPE, "kmeans": isa.SPE}},
		{"ppe:1,spe:2,vpu:2", map[string]isa.CoreKind{"matmul": isa.VPU, "nbody": isa.VPU, "kmeans": isa.SPE}},
	} {
		topo, err := cell.ParseTopology(tc.shape)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range workloads.Kernels() {
			// Two copies of the kernel: the first's scalar twin is the
			// companion, admitted before the second's kernel entry.
			entries := []workloads.MixEntry{{Spec: k, Threads: 1, Scale: k.DefaultScale}, {Spec: k, Threads: 1, Scale: k.DefaultScale}}
			prog, err := workloads.BuildMix(entries)
			if err != nil {
				t.Fatal(err)
			}
			cfg := vm.DefaultConfig()
			cfg.Machine.Topology = topo
			machine, err := vm.New(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			companion, _, err := machine.Submit(vm.JobSpec{Name: "scalar", Class: workloads.JobPrefix(0) + k.ScalarClass, Method: "main"})
			if err != nil {
				t.Fatal(err)
			}
			job, _, err := machine.Submit(vm.JobSpec{Name: "kernel", Class: entries[1].MainClassOf(1), Method: "main"})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := job.Wait(); err != nil {
				t.Fatal(err)
			}
			if companion.Done() {
				t.Fatalf("%s on %s: the companion finished first; the launch may have had the machine to itself", k.Name, tc.shape)
			}
			if _, err := companion.Wait(); err != nil {
				t.Fatal(err)
			}
			ref := k.Reference(0, k.DefaultScale)
			if got := isa.KindSet(0).With(tc.want[k.Name]); job.KernelPool() != got {
				t.Errorf("%s on %s: ran on %v, want %v alone", k.Name, tc.shape, job.KernelPool(), got)
			}
			for name, j := range map[string]*vm.Job{"scalar": companion, "kernel": job} {
				if sum := int32(uint32(j.Root().Result)); sum != ref {
					t.Errorf("%s on %s: %s checksum %d, want %d", k.Name, tc.shape, name, sum, ref)
				}
			}
		}
	}
}

// TestServeMixesKernelJobs: kernel workloads resolve through the serve
// driver's job mix (the workloads.ByName fallback), running forRange
// launches open-loop beside the paper workloads with checksums intact.
func TestServeMixesKernelJobs(t *testing.T) {
	opt := Options{
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
			t.Errorf("shed=%v: a job checksum diverged from its reference", r.Shedding)
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

// TestRunKernelsDeterministicReplay: the whole figure at scale 1 —
// table and JSON bytes included — replays identically. The golden
// holds the table at the figure's own sizes, not the JSON.
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
