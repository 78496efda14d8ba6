package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/vm"
)

// golden is one herabench invocation TestFigures holds to a checked-in
// file: what it prints, Table()+"\n", is one section of testdata/<file>
// at the repository root.
type golden struct {
	name string // the subtest
	args string // herabench's arguments
	fig  Figure
	opt  Options
	file string
}

// goldens lists every figure at herabench's default sizes, and the
// cluster figure's hand-off arm after it. Figures 4(a) and 4(b) share
// one file, as do 6 and 7, each in that order; every other run has its
// own.
func goldens() []golden {
	var out []golden
	for _, f := range Figures() {
		file := "golden_fig" + f.ID + ".txt"
		switch f.ID {
		case "4a", "4b":
			file = "golden_fig4.txt"
		case "6", "7":
			file = "golden_fig6_7.txt"
		}
		out = append(out, golden{f.ID, "-fig " + f.ID, f, Quick(), file})
		if f.ID == "cluster" {
			handoff := Quick()
			handoff.Handoff = true
			out = append(out, golden{"cluster-handoff", "-fig cluster -handoff", f, handoff, "golden_fig_cluster_handoff.txt"})
		}
	}
	return out
}

// goldenNamed is the entry of goldens whose subtest is name.
func goldenNamed(t *testing.T, name string) golden {
	t.Helper()
	for _, g := range goldens() {
		if g.name == name {
			return g
		}
	}
	t.Fatalf("no golden run named %q", name)
	return golden{}
}

// goldenRuns memoizes each golden's run, so TestFigures and the tests
// that read one of its results (TestFigure4Golden,
// TestServeSheddingPaysAtOverload) share it, whichever a -run pattern
// selects: under the race detector a Quick pass is minutes.
var goldenRuns sync.Map // golden name -> func() (Result, error)

func runGolden(g golden) (Result, error) {
	run, _ := goldenRuns.LoadOrStore(g.name,
		sync.OnceValues(func() (Result, error) { return g.fig.Run(g.opt) }))
	return run.(func() (Result, error))()
}

// TestFigures drives every figure the way herabench does, at its
// default sizes: ids are unique, and every figure prints exactly its
// checked-in golden section, survives a JSON round trip and passes its
// own Check — where the kernels figure's 2x floor and serve's shedding
// at its default overload apply. The runs share one process, its body
// table and its workload templates, in parallel, so a figure that
// depended on what ran before it, or on another's timing, would miss
// its golden.
func TestFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("golden figure replay skipped in -short mode")
	}
	seen := map[string]bool{}
	for _, f := range Figures() {
		if seen[f.ID] || f.ID == "" || f.ID == "all" || f.Doc == "" {
			t.Errorf("figure %q: id must be unique, non-empty and not \"all\", with a description", f.ID)
		}
		seen[f.ID] = true
	}
	cases := goldens()
	sections := map[string][]string{} // golden file -> its sections' herabench arguments
	for _, g := range cases {
		sections[g.file] = append(sections[g.file], g.args)
	}
	for _, g := range cases {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			res, err := runGolden(g)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, g.file, slices.Index(sections[g.file], g.args), res.Table()+"\n",
				regenerate(g.file, sections[g.file]))

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
				if err := c.Check(g.opt); err != nil {
					t.Errorf("Check on a clean run: %v", err)
				}
			}
		})
	}
}

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

// TestFiguresReplay: a figure is a pure function of its options, so two
// in-process runs of any registry entry render the same table with no
// option set to make it so — the contract the goldens rest on. It runs
// at the smallest sizes, which no golden holds, and both runs share one
// process: a figure that read state an earlier run left behind would
// differ here. The figures replay in parallel: they share nothing,
// which the race detector then checks too.
func TestFiguresReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry replay skipped in -short mode")
	}
	for _, f := range Figures() {
		t.Run(f.ID, func(t *testing.T) {
			t.Parallel()
			first, err := f.Run(registrySizes())
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

// regenerate is the shell command, run from the repository root, that
// rewrites a golden file from the herabench runs its sections hold.
func regenerate(file string, args []string) string {
	cmds := make([]string, len(args))
	for i, a := range args {
		redirect := ">>"
		if i == 0 {
			redirect = ">"
		}
		cmds[i] = fmt.Sprintf("go run ./cmd/herabench %s %s testdata/%s", a, redirect, file)
	}
	return strings.Join(cmds, " && ")
}

// checkGolden fails t unless got is section n of the golden file, whose
// sections each end in a blank line. The message names the file and
// regen, the command that rewrites it for a change meant to move it.
func checkGolden(t *testing.T, file string, n int, got, regen string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", file))
	if err != nil {
		t.Fatalf("%v; write it from the repository root with\n\t%s", err, regen)
	}
	want := ""
	if sections := strings.SplitAfter(string(raw), "\n\n"); n < len(sections) {
		want = sections[n]
	}
	if got != want {
		t.Errorf("output differs from section %d of testdata/%s; if the change is meant to move it, "+
			"rewrite the file from the repository root with\n\t%s\n--- want ---\n%s--- got ---\n%s",
			n+1, file, regen, want, got)
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
	// kernels is a three-kind shape's matmul row, after edit, beside a
	// PPE reference that neither stages nor clears the floor.
	kernels := func(edit func(*KernelsRow)) *KernelsSweep {
		row := KernelsRow{Workload: "matmul", Topology: "ppe:1,spe:4,vpu:2", Shape: true, Pool: "ppe+spe+vpu",
			Speedup: 5.2, VsBest: 0.76, Workers: 7, DMABytes: 4096, Staged: "spe+vpu", Valid: true}
		edit(&row)
		ref := KernelsRow{Workload: "matmul", Topology: "ppe:1", Pool: "ppe", Speedup: 1, Workers: 1, Valid: true}
		return &KernelsSweep{Rows: []KernelsRow{row, ref}}
	}
	// sweep is a cache sweep over 8, 56 and the default size: compress
	// rises and mpegaudio has a knee, the shapes of Figures 6 and 7, and
	// flat marks the one of the two the figure's cache does not move.
	// edit then changes the rows.
	sweep := func(figure, flat string, edit func(map[string]*CacheSweepRow)) CacheSweep {
		rows := map[string]*CacheSweepRow{
			"compress":   {HitRate: []float64{0.76, 0.9, 0.94}, RelPerf: []float64{0.52, 0.8, 1}, Valid: true},
			"mpegaudio":  {HitRate: []float64{0.17, 0.98, 0.98}, RelPerf: []float64{0.334, 0.993, 1}, Valid: true},
			"mandelbrot": {HitRate: []float64{1, 1, 1}, RelPerf: []float64{1, 1, 1}, Valid: true},
		}
		rows[flat].RelPerf = []float64{0.997, 0.999, 1}
		edit(rows)
		s := CacheSweep{Figure: figure, SizesKB: []int{8, 56, 104}}
		for _, name := range []string{"compress", "mpegaudio", "mandelbrot"} {
			if r := rows[name]; r != nil {
				r.Workload = name
				s.Rows = append(s.Rows, *r)
			}
		}
		return s
	}
	fig6 := func(edit func(map[string]*CacheSweepRow)) *Fig6 {
		return &Fig6{sweep("Figure 6", "mpegaudio", edit)}
	}
	fig7 := func(edit func(map[string]*CacheSweepRow)) *Fig7 {
		return &Fig7{sweep("Figure 7", "compress", edit)}
	}
	// fig4a and fig4b are the Quick Figure 4 rows, after edit; fig4b's
	// sweep stops at n SPEs.
	fig4a := func(edit func([]Fig4aRow)) *Fig4a {
		rows := []Fig4aRow{{Workload: "compress", OneSPE: 0.48, SixSPE: 2.85, Valid: true},
			{Workload: "mpegaudio", OneSPE: 0.90, SixSPE: 5.31, Valid: true},
			{Workload: "mandelbrot", OneSPE: 1.74, SixSPE: 9.85, Valid: true}}
		edit(rows)
		return &Fig4a{Rows: rows}
	}
	fig4b := func(n int, edit func([]Fig4bRow)) *Fig4b {
		var rows []Fig4bRow
		for _, w := range []string{"compress", "mpegaudio", "mandelbrot"} {
			rows = append(rows, Fig4bRow{Workload: w, Scaling: []float64{1, 2, 3, 3.8, 4.7, 5.7}[:n], Valid: true})
		}
		edit(rows)
		return &Fig4b{MaxSPEs: n, Rows: rows}
	}
	// serve is the default overload sweep, shedding off then on, after
	// edit.
	serve := func(edit func(s *ServeSweep, off, on *ServeRun)) *ServeSweep {
		s := &ServeSweep{Topology: DefaultServeTopology().String(), Script: serveDefaults, MaxPending: defaultServeMaxPending,
			Runs: []ServeRun{{SLO: SLO{Completed: 15, Met: 5, Goodput: 170, AllValid: true}},
				{Shedding: true, SLO: SLO{Completed: 6, Shed: 9, Met: 4, Goodput: 246, AllValid: true}}}}
		s.Seed = defaultServeSeed
		edit(s, &s.Runs[0], &s.Runs[1])
		return s
	}
	var floor Options // the figures' own defaults: every claim held
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
		{"zero DMA", kernels(func(r *KernelsRow) { r.DMABytes, r.Staged = 0, "" }), floor, "matmul on ppe:1,spe:4,vpu:2: kernel billed no staging DMA on its spe pool"},
		{"VPUs staged nothing", kernels(func(r *KernelsRow) { r.Staged = "spe" }), floor, "matmul on ppe:1,spe:4,vpu:2: kernel billed no staging DMA on its vpu pool"},
		{"zero DMA on the PPE", kernels(func(r *KernelsRow) { r.Pool, r.DMABytes, r.Staged = "ppe", 0, "" }), floor, ""},
		{"kernels below floor", kernels(func(r *KernelsRow) { r.Speedup = 1.5 }), floor, "matmul on ppe:1,spe:4,vpu:2: speedup 1.50x"},
		{"split no better than its best sub-machine", kernels(func(r *KernelsRow) { r.Pool, r.VsBest = "spe", 1 }), floor,
			"matmul on ppe:1,spe:4,vpu:2: the spe plan takes 1.000x the cycles of the best sub-machine (at most 0.80x)"},
		{"nbody split held too", kernels(func(r *KernelsRow) { r.Workload, r.VsBest = "nbody", 0.9 }), floor,
			"nbody on ppe:1,spe:4,vpu:2: the ppe+spe+vpu plan takes 0.900x"},
		{"kmeans split not held", func() *KernelsSweep {
			s := kernels(func(*KernelsRow) {})
			k := s.Rows[0]
			k.Workload, k.VsBest = "kmeans", 0.9
			s.Rows = append(s.Rows, k)
			return s
		}(), floor, ""},
		{"kernels just at the floor", kernels(func(r *KernelsRow) { r.Speedup = 2 }), floor, ""},
		{"floor held on a two-kind shape", kernels(func(r *KernelsRow) {
			r.Topology, r.Pool, r.Staged, r.VsBest, r.Speedup = "ppe:1,vpu:2", "ppe+vpu", "vpu", 0.9, 1.99
		}),
			floor, "matmul on ppe:1,vpu:2: speedup 1.99x below the 2.00x floor"},
		{"split not held off the figure's shapes", kernels(func(r *KernelsRow) { r.VsBest = 1 }),
			Options{Topologies: []cell.Topology{cell.PS3Topology(6)}}, ""},
		{"split not held below the default size", kernels(func(r *KernelsRow) { r.VsBest = 1 }),
			Options{ScaleOverride: map[string]int{"matmul": 1}}, ""},
		{"floor not held off the figure's shapes", kernels(func(r *KernelsRow) { r.Speedup = 1.5 }),
			Options{Topologies: []cell.Topology{cell.PS3Topology(6)}}, ""},
		{"floor not held below the default size", kernels(func(r *KernelsRow) { r.Speedup = 1.5 }),
			Options{ScaleOverride: map[string]int{"matmul": 1}}, ""},
		{"plan behind its best sub-machine", kernels(func(r *KernelsRow) { r.Topology, r.Pool, r.VsBest = "ppe:1,spe:6", "ppe+spe", 1.62 }), floor,
			"matmul on ppe:1,spe:6: the ppe+spe plan takes 1.620x the cycles of the best sub-machine (at most 1.02x)"},
		{"plan within slack", kernels(func(r *KernelsRow) { r.Topology, r.Pool, r.VsBest = "ppe:1,spe:6", "ppe+spe", 1.02 }), floor, ""},
		{"floor never applied", kernels(func(r *KernelsRow) { r.Workload = "nbody" }), floor, "no matmul row ran"},
		{"no floor off the figure's shapes, no matmul", kernels(func(r *KernelsRow) { r.Workload = "nbody" }),
			Options{Topologies: []cell.Topology{cell.PS3Topology(6)}}, ""},

		{"clean figure 6", fig6(func(map[string]*CacheSweepRow) {}), Options{}, ""},
		{"figure 6 without mpegaudio", fig6(func(rows map[string]*CacheSweepRow) { delete(rows, "mpegaudio") }), Options{}, ""},
		{"invalid figure 6 row", fig6(func(rows map[string]*CacheSweepRow) { rows["mandelbrot"].Valid = false }),
			Options{}, "mandelbrot: checksum mismatch"},
		{"compress hit rate flat", fig6(func(rows map[string]*CacheSweepRow) { rows["compress"].HitRate[1] = 0.76 }),
			Options{}, "compress: hit rate"},
		{"compress performance falls", fig6(func(rows map[string]*CacheSweepRow) { rows["compress"].RelPerf[1] = 1.01 }),
			Options{}, "compress: performance [0.52 1.01 1] does not rise"},
		{"compress fast at 8 KB", fig6(func(rows map[string]*CacheSweepRow) { rows["compress"].RelPerf[0] = 0.61 }),
			Options{}, "compress: performance 0.610 at 8 KB"},
		{"mandelbrot moved by the data cache", fig6(func(rows map[string]*CacheSweepRow) { rows["mandelbrot"].RelPerf[1] = 0.994 }),
			Options{}, "mandelbrot: performance 0.994 at 56 KB"},
		{"clean figure 7", fig7(func(map[string]*CacheSweepRow) {}), Options{}, ""},
		{"mpegaudio fast at 8 KB", fig7(func(rows map[string]*CacheSweepRow) { rows["mpegaudio"].RelPerf[0] = 0.5 }),
			Options{}, "mpegaudio: performance 0.500 at 8 KB"},
		{"mpegaudio slow at 56 KB", fig7(func(rows map[string]*CacheSweepRow) { rows["mpegaudio"].RelPerf[1] = 0.98 }),
			Options{}, "mpegaudio: performance 0.980 at 56 KB"},
		{"compress moved by the code cache", fig7(func(rows map[string]*CacheSweepRow) { rows["compress"].RelPerf[0] = 0.99 }),
			Options{}, "compress: performance 0.990 at 8 KB"},

		{"invalid figure row", &Fig4a{Rows: []Fig4aRow{{Workload: "compress", Valid: true}, {Workload: "mpegaudio"}}},
			Options{}, "mpegaudio: checksum mismatch"},
		{"clean figure 4(a)", fig4a(func([]Fig4aRow) {}), Options{}, ""},
		{"figure 4(a) without compress and mandelbrot", &Fig4a{Rows: []Fig4aRow{{Workload: "mpegaudio", OneSPE: 1.2, Valid: true}}}, Options{}, ""},
		{"compress fast on one SPE", fig4a(func(rows []Fig4aRow) { rows[0].OneSPE = 1 }),
			Options{}, "compress: 1.00x on one SPE, want < 1x"},
		{"mandelbrot slow on one SPE", fig4a(func(rows []Fig4aRow) { rows[2].OneSPE = 0.95 }),
			Options{}, "mandelbrot: 0.95x on one SPE, want > 1x"},
		{"clean figure 4(b)", fig4b(6, func([]Fig4bRow) {}), Options{}, ""},
		{"figure 4(b) below six SPEs", fig4b(4, func([]Fig4bRow) {}), Options{}, ""},
		{"mpegaudio flat on six SPEs", fig4b(6, func(rows []Fig4bRow) { rows[1].Scaling[5] = 4.9 }),
			Options{}, "mpegaudio: 4.90x on six SPEs, want >= 5x"},

		{"clean A1", &A1{Rows: []A1Row{{Workload: "compress", Valid: true}}}, Options{}, ""},
		{"invalid A1 row", &A1{Rows: []A1Row{{Workload: "compress", Valid: true}, {Workload: "mpegaudio"}}},
			Options{}, "ablation A1 gate:\n  mpegaudio: checksum mismatch"},
		{"clean A2", &A2{WorkUnits: []int{1, 128}, BreakEvenOps: 128, Valid: true}, Options{}, ""},
		{"invalid A2 run", &A2{WorkUnits: []int{1, 128}, BreakEvenOps: 128}, Options{}, "ablation A2 gate:\n  a run's checksum mismatch"},
		{"A2 without a break-even", &A2{WorkUnits: []int{1, 128}, BreakEvenOps: -1, Valid: true},
			Options{}, "no break-even: migrating never beat PPE-local up to 128 work units"},
		{"clean A3", &A3{Rows: []A3Row{{Workload: "compress", Valid: true}}}, Options{}, ""},
		{"invalid A3 row", &A3{Rows: []A3Row{{Workload: "mandelbrot"}}}, Options{}, "ablation A3 gate:\n  mandelbrot: checksum mismatch"},
		{"unsound A4 arm invalid", &A4{Rows: []A4Row{{Workload: "compress", Valid: true}}}, Options{}, ""},
		{"invalid coherent A4 arm", &A4{Rows: []A4Row{{Workload: "compress", UnsoundValid: true}}},
			Options{}, "ablation A4 gate:\n  compress: checksum mismatch"},
		{"invalid serve pass", &ServeSweep{Runs: []ServeRun{{Shedding: true}}},
			Options{}, "shedding true: a completed job's checksum diverged"},
		{"clean serve overload", serve(func(_ *ServeSweep, _, _ *ServeRun) {}), Quick(), ""},
		{"serve shed nothing", serve(func(_ *ServeSweep, _, on *ServeRun) { on.Shed, on.Completed = 0, 15 }), Quick(),
			"shedding true: shed nothing at the default overload"},
		{"serve shedding lost goodput", serve(func(_ *ServeSweep, off, _ *ServeRun) { off.Goodput = 250 }), Quick(),
			"shedding true: goodput 246.00/s below the 250.00/s"},
		{"serve shedding broke even", serve(func(_ *ServeSweep, off, _ *ServeRun) { off.Goodput = 246 }), Quick(), ""},
		{"serve claim not held off its mix", serve(func(_ *ServeSweep, _, on *ServeRun) { on.Shed = 0 }),
			func() Options { o := Quick(); o.ServeWorkloads = []string{"compress"}; return o }(), ""},
		{"serve claim not held at other sizes", serve(func(_ *ServeSweep, _, on *ServeRun) { on.Shed = 0 }), Full(), ""},
		{"serve claim not held off its script", serve(func(s *ServeSweep, _, on *ServeRun) { s.Cadence, on.Shed = 500_000, 0 }), Quick(), ""},
		{"serve claim not held off its machine", serve(func(s *ServeSweep, _, on *ServeRun) { s.Topology, on.Shed = "ppe:1,spe:6", 0 }), Quick(), ""},
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
