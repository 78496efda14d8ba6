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
// valid row per (workload, machine) — the four shapes and their three
// further single-pool references — bill staging DMA on every
// local-store pool, and pass its own gate at a floor every shape clears
// at scale 1.
func TestRunKernelsDifferentialAndGate(t *testing.T) {
	s, err := RunKernels(kernelsQuickOpt())
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
	}
	if err := s.Check(Options{MinSpeedup: 1.0}); err != nil {
		t.Errorf("gate failed at a 1.0x floor: %v", err)
	}
	if err := s.Check(Options{MinSpeedup: 1e9}); err == nil {
		t.Error("gate passed an impossible floor")
	}
}

// TestRunKernelsPoolChoice: the reported pool is the one the launch ran
// on, and the planner picks the pool that finishes first — the four
// SPEs over the two VPUs on the three-kind machine, the VPUs over two
// SPEs for the FP-heavy matmul and nbody but not for the branchy kmeans
// — and each reference runs on its own pool.
func TestRunKernelsPoolChoice(t *testing.T) {
	s, err := RunKernels(kernelsQuickOpt())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"ppe:1,spe:6":              "spe",
		"ppe:1,spe:4,vpu:2":        "spe",
		"ppe:1,vpu:2":              "vpu",
		"ppe:1":                    "ppe",
		"ppe:1,spe:4":              "spe",
		"ppe:1,spe:2":              "spe",
		"ppe:1,spe:2,vpu:2 matmul": "vpu",
		"ppe:1,spe:2,vpu:2 nbody":  "vpu",
		"ppe:1,spe:2,vpu:2 kmeans": "spe",
	}
	for _, r := range s.Rows {
		w, ok := want[r.Topology]
		if !ok {
			w = want[r.Topology+" "+r.Workload]
		}
		if r.Pool != w {
			t.Errorf("%s on %s: pool %q, want %q", r.Workload, r.Topology, r.Pool, w)
		}
	}
}

// TestRunKernelsPlansPPEHeavyShapes: where a PPE pool competes with
// local-store pools, the plan still takes at most planSlack times its
// best single pool — the price charges each kind's memory hits, which
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
	if err := s.Check(Options{}); err != nil {
		t.Error(err)
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
