package experiments

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/isa"
	"herajvm/internal/vm"
)

// registrySizes are the smallest sizes every registry entry runs at.
func registrySizes() Options {
	opt := tiny()
	for _, k := range []string{"matmul", "nbody", "kmeans"} {
		opt.ScaleOverride[k] = 1
	}
	opt.ServeJobs, opt.ServeCadence = 6, 300_000
	opt.ShardTopos = []cell.Topology{cell.PS3Topology(2), cell.PS3Topology(2)}
	return opt
}

// firstRuns memoizes one run of each figure at registrySizes, so
// TestFigures and TestFiguresReplay share it, whichever a -run pattern
// selects: under the race detector a pass over the registry is minutes.
var firstRuns sync.Map // figure id -> func() (Result, error)

func firstRun(f Figure) (Result, error) {
	run, _ := firstRuns.LoadOrStore(f.ID,
		sync.OnceValues(func() (Result, error) { return f.Run(registrySizes()) }))
	return run.(func() (Result, error))()
}

// TestFigures drives the whole registry the way herabench does, at the
// smallest sizes: ids are unique, and every figure runs, renders a
// table, survives a JSON round trip, and passes its own Check.
func TestFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry replay skipped in -short mode")
	}
	opt := registrySizes()
	seen := map[string]bool{}
	for _, f := range Figures() {
		if seen[f.ID] || f.ID == "" || f.ID == "all" || f.Doc == "" {
			t.Errorf("figure %q: id must be unique, non-empty and not \"all\", with a description", f.ID)
		}
		seen[f.ID] = true
		t.Run(f.ID, func(t *testing.T) {
			res, err := firstRun(f)
			if err != nil {
				t.Fatal(err)
			}
			if res.Table() == "" {
				t.Error("empty table")
			}
			first, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			back := reflect.New(reflect.TypeOf(res).Elem()).Interface()
			if err := json.Unmarshal(first, back); err != nil {
				t.Fatal(err)
			}
			if second, _ := json.Marshal(back); string(first) != string(second) {
				t.Errorf("JSON did not round-trip:\n%s\nvs\n%s", first, second)
			}
			if c, ok := res.(Checker); ok {
				if err := c.Check(opt); err != nil {
					t.Errorf("Check on a clean run: %v", err)
				}
			}
		})
	}
}

// TestFiguresReplay: a figure is a pure function of its options, so two
// in-process runs of any registry entry render the same table with no
// option set to make it so — the contract every replay gate and every
// "byte-identical to the parent" check rests on. The figures replay in
// parallel: they share nothing, which the race detector then checks too.
func TestFiguresReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry replay skipped in -short mode")
	}
	for _, f := range Figures() {
		t.Run(f.ID, func(t *testing.T) {
			t.Parallel()
			first, err := firstRun(f)
			if err != nil {
				t.Fatal(err)
			}
			second, err := f.Run(registrySizes())
			if err != nil {
				t.Fatal(err)
			}
			if a, b := first.Table(), second.Table(); a != b {
				t.Errorf("table not replayable:\n--- first ---\n%s--- second ---\n%s", a, b)
			}
		})
	}
}

// TestSLOFold pins the one percentile/goodput fold on hand-made
// results: nearest-rank percentiles at n = 0, 1, 2 and 100, shed jobs
// counted but kept out of the latencies, and goodput 0 when nothing
// completed.
func TestSLOFold(t *testing.T) {
	const hz = 1000 // 1000 cycles per simulated second
	done := func(latency, completedAt cell.Clock, met bool) *vm.Result {
		return &vm.Result{Cycles: latency, CompletedAt: completedAt, DeadlineMet: met}
	}
	shed := &vm.Result{Shed: true, Cycles: 999_999} // a latency that must never be read
	hundred := make([]*vm.Result, 100)
	for i := range hundred {
		hundred[i] = done(cell.Clock(100-i), 2000, i%2 == 0) // unsorted on purpose: 100, 99, ... 1
	}
	for _, tc := range []struct {
		name          string
		results       []*vm.Result
		invalid       int // index of a job whose checksum failed, -1 for none
		want          SLO
		wantMakespan  cell.Clock
		wantLatencies [3]cell.Clock
	}{
		{"n=0", nil, -1, SLO{AllValid: true}, 0, [3]cell.Clock{}},
		{"all shed", []*vm.Result{shed, shed}, 0, SLO{Shed: 2, AllValid: true}, 0, [3]cell.Clock{}},
		{"n=1", []*vm.Result{done(70, 500, true)}, -1,
			SLO{Completed: 1, Met: 1, Goodput: 2, AllValid: true}, 500, [3]cell.Clock{70, 70, 70}},
		{"n=2 + shed", []*vm.Result{done(90, 400, false), shed, done(30, 1000, true)}, -1,
			SLO{Completed: 2, Shed: 1, Met: 1, Goodput: 1, AllValid: true}, 1000, [3]cell.Clock{30, 90, 90}},
		{"n=100", hundred, -1,
			SLO{Completed: 100, Met: 50, Goodput: 25, AllValid: true}, 2000, [3]cell.Clock{50, 95, 99}},
		{"invalid job", []*vm.Result{done(10, 1000, true), done(20, 1000, true)}, 1,
			SLO{Completed: 2, Met: 2, Goodput: 2}, 1000, [3]cell.Clock{10, 20, 20}},
	} {
		valid := make([]bool, len(tc.results))
		for i := range valid {
			valid[i] = i != tc.invalid
		}
		tc.want.P50, tc.want.P95, tc.want.P99 = tc.wantLatencies[0], tc.wantLatencies[1], tc.wantLatencies[2]
		got, makespan := foldSLO(tc.results, valid, hz)
		if got != tc.want || makespan != tc.wantMakespan {
			t.Errorf("%s: fold = %+v makespan %d, want %+v makespan %d", tc.name, got, makespan, tc.want, tc.wantMakespan)
		}
	}
}

// TestCheckFailureArms mutates one exported field of a clean hand-made
// result per arm and demands Check fail naming the row (or pass) it
// found wrong — the gates herabench exits 1 on.
func TestCheckFailureArms(t *testing.T) {
	pass := func(mode string) ClusterRun {
		return ClusterRun{Mode: mode, Stride: 500_000, Identical: true,
			SLO: SLO{Completed: 4, Met: 2, P99: 900, AllValid: true}}
	}
	cluster := func(edit func(*ClusterSweep)) *ClusterSweep {
		s := &ClusterSweep{Shards: []string{"ppe:1", "ppe:1,spe:6"},
			Serial: pass("serial"), Parallel: pass("parallel"), HandoffArm: true, HandoffOn: pass("handoff")}
		s.HandoffOn.Handoffs, s.HandoffOn.P99 = 1, 700
		edit(s)
		return s
	}
	kernels := func(edit func(*KernelsRow)) *KernelsSweep {
		row := KernelsRow{Workload: "matmul", Topology: "ppe:1,spe:4,vpu:2", Pool: "vpu",
			Speedup: 2.1, Workers: 2, DMABytes: 4096, Valid: true}
		edit(&row)
		return &KernelsSweep{Rows: []KernelsRow{row}}
	}
	// fastPathCell compares a stepped run with a fast one that took the
	// memoized path for some of its work, after edit.
	fastPathCell := func(edit func(*RunStats)) *FastPath {
		slow := RunStats{Workload: "compress", Cycles: 1000, Checksum: 7, Valid: true}
		slow.All.Cycles[isa.ClassFloat], slow.All.Instrs = 600, 90
		slow.Accel = slow.All
		fast := slow
		fast.All.FastForwardedBlocks, fast.All.FastForwardedInstrs = 4, 80
		fast.Accel = fast.All
		edit(&fast)
		return &FastPath{Rows: []FastPathRow{fastPathRow("steal", fast, slow)}}
	}
	floor := Options{MinSpeedup: 2}
	for _, tc := range []struct {
		arm  string
		res  Checker
		opt  Options
		want string // "" = Check must pass
	}{
		{"clean cluster", cluster(func(*ClusterSweep) {}), floor, ""},
		{"diverged pass", cluster(func(s *ClusterSweep) { s.Parallel.Identical = false }), floor, "parallel pass (stride 500000)"},
		{"invalid pass", cluster(func(s *ClusterSweep) { s.Serial.AllValid = false }), floor, "serial pass (stride 500000)"},
		{"unreplayed hand-off", cluster(func(s *ClusterSweep) { s.HandoffOn.Identical = false }), floor, "handoff pass (stride 500000)"},
		{"zero hand-offs", cluster(func(s *ClusterSweep) { s.HandoffOn.Handoffs = 0 }), floor, "handoff pass: no hand-offs fired"},
		{"hand-off no better", cluster(func(s *ClusterSweep) { s.HandoffOn.P99 = 900 }), floor, "handoff pass: hand-off did not improve"},

		{"clean kernels", kernels(func(*KernelsRow) {}), floor, ""},
		{"invalid kernel row", kernels(func(r *KernelsRow) { r.Valid = false }), floor, "matmul on ppe:1,spe:4,vpu:2: checksum mismatch"},
		{"zero DMA", kernels(func(r *KernelsRow) { r.DMABytes = 0 }), floor, "matmul on ppe:1,spe:4,vpu:2: kernel billed no staging DMA"},
		{"kernels below floor", kernels(func(r *KernelsRow) { r.Speedup = 1.5 }), floor, "matmul on ppe:1,spe:4,vpu:2: speedup 1.50x"},
		{"floor never applied", kernels(func(r *KernelsRow) { r.Pool = "spe" }), floor, "no matmul row ran on a VPU pool"},
		{"no floor, no VPU", kernels(func(r *KernelsRow) { r.Pool = "spe" }), Options{}, ""},

		{"invalid figure row", &Fig4a{Rows: []Fig4aRow{{Workload: "compress", Valid: true}, {Workload: "mpegaudio"}}},
			Options{}, "mpegaudio: checksum mismatch"},
		{"schedulers disagree", &SchedSweep{Rows: []SchedSweepRow{{Workload: "compress", Topology: "ppe:1,spe:6"}}},
			Options{}, "compress on ppe:1,spe:6: schedulers disagreed"},
		{"calendar stole", &SchedSweep{Rows: []SchedSweepRow{{Workload: "compress", Topology: "ppe:1,spe:6",
			Match: true, Calendar: SchedArm{Steals: 3}}}}, Options{}, "the calendar scheduler stole 3 times"},
		{"invalid serve pass", &ServeSweep{Runs: []ServeRun{{Scheduler: "steal", Shedding: true}}},
			Options{}, "steal (shedding true)"},
		{"diverged fastpath cell", &FastPath{Rows: []FastPathRow{{Workload: "compress", Scheduler: "steal"}}},
			Options{}, "compress/steal: fast and slow runs diverged"},
		{"clean fastpath cell", fastPathCell(func(*RunStats) {}), Options{}, ""},
		{"diverged fastpath class vectors", fastPathCell(func(st *RunStats) { st.Accel.Cycles[isa.ClassFloat]-- }),
			Options{}, "compress/steal: fast and slow runs diverged"},
	} {
		err := tc.res.Check(tc.opt)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Check failed a clean result: %v", tc.arm, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Check = %v, want an error naming %q", tc.arm, err, tc.want)
		}
	}
}
