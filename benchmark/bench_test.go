package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// shortOptions runs a workload at test size: one set-up pass, one
// measured iteration, a few milliseconds per probe, no golden replay.
func shortOptions(workload string, trace bool) options {
	opt := defaultOptions()
	opt.workload, opt.trace = workload, trace
	opt.sz = shortSizes
	opt.seconds = 0
	opt.setupPasses, opt.minIters = 1, 1
	opt.probeBudget = 2 * time.Millisecond
	opt.guard = func(context.Context) error { return nil }
	return opt
}

// TestManifestMatchesCatalogue keeps BENCHMARK.json equal to what the
// metric catalogue writes.
func TestManifestMatchesCatalogue(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with: go run -C benchmark . -manifest > BENCHMARK.json")
	}
}

// TestEveryMetricEmittedOnce runs every workload in both modes and
// demands exactly the names BENCHMARK.json lists for the mode, each
// with its unit, no failed job, and a result line of the agreed shape.
func TestEveryMetricEmittedOnce(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel() // nothing here asserts on host time
			everyMetricEmittedOnce(t, name)
		})
	}
}

func everyMetricEmittedOnce(t *testing.T, name string) {
	for _, trace := range []bool{false, true} {
		rep, err := runWorkload(context.Background(), shortOptions(name, trace))
		if err != nil {
			t.Fatalf("%s trace=%v: %v", name, trace, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v",
				name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.Notes)
		}
		defs := endToEndDefs
		if trace {
			defs = perLayerDefs
		}
		if len(rep.Metrics) != len(defs) {
			t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(rep.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := rep.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("%s trace=%v: %s not emitted", name, trace, d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s trace=%v: %s has unit %q, want %q", name, trace, d.Name, m.Unit, d.Unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s trace=%v: %s = %v", name, trace, d.Name, m.Value)
			case !trace && m.Value == 0:
				t.Errorf("%s: end-to-end metric %s is 0", name, d.Name)
			}
		}
		if !trace && rep.Metrics["correct_share"].Value != 1 {
			t.Errorf("%s: correct_share = %v", name, rep.Metrics["correct_share"].Value)
		}

		line, err := rep.resultLine()
		if err != nil {
			t.Fatal(err)
		}
		var parsed map[string]json.RawMessage
		if err := json.Unmarshal(line, &parsed); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := parsed[key]; !ok {
				t.Errorf("result line lacks %q", key)
			}
		}
		if len(parsed) != 4 {
			t.Errorf("result line has %d keys, want 4", len(parsed))
		}
	}
}

// iterateOnce prepares a workload and plays one iteration.
func iterateOnce(t *testing.T, name string, seed uint64, tr *tracer) (workload, *simResult) {
	t.Helper()
	w, err := newWorkload(name, seed, shortSizes)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.prepare(nil); err != nil {
		t.Fatal(err)
	}
	return w, w.iterate(context.Background(), tr)
}

// TestSimulatedNumbersRepeat holds every sim_* metric and exact counter
// to equality across GOMAXPROCS 1 and 2 (the cluster workload advances
// its shards on goroutines; runWorkload itself fails a run whose
// iterations disagree, which TestEveryMetricEmittedOnce exercises) and
// pins what the seed may change: the visiting order of the closed loops
// and the start phase of the open loops — never how much simulated work
// a run carries.
func TestSimulatedNumbersRepeat(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range workloadNames {
		runtime.GOMAXPROCS(2)
		_, first := iterateOnce(t, name, 1, nil)
		if first.failed != 0 {
			t.Fatalf("%s: %d failed jobs: %v", name, first.failed, first.errs)
		}
		runtime.GOMAXPROCS(1)
		_, single := iterateOnce(t, name, 1, nil)
		if metric := diverged(first.exact(), single.exact()); metric != "" {
			t.Errorf("%s: %s differs under GOMAXPROCS=1: %v vs %v", name, metric,
				first.exact()[metric], single.exact()[metric])
		}
		if first.jobsTable != single.jobsTable {
			t.Errorf("%s: job table differs under GOMAXPROCS=1", name)
		}

		_, reseeded := iterateOnce(t, name, 7, nil)
		a, b := first.exact(), reseeded.exact()
		if a["vm.instrs"] != b["vm.instrs"] || a["sim_lat_p90_cycles"] != b["sim_lat_p90_cycles"] {
			t.Errorf("%s: seeds 1 and 7 simulate different work: instrs %v vs %v, p90 %v vs %v", name,
				a["vm.instrs"], b["vm.instrs"], a["sim_lat_p90_cycles"], b["sim_lat_p90_cycles"])
		}
	}

	w1, _ := newFigs(1, shortSizes)
	w7, _ := newFigs(7, shortSizes)
	if err := errors.Join(w1.prepare(nil), w7.prepare(nil)); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(w1.order) == fmt.Sprint(w7.order) {
		t.Error("figs visits its cells in the same order on seeds 1 and 7")
	}
	s1, s7 := newServe(1, shortSizes), newServe(7, shortSizes)
	if err := errors.Join(s1.prepare(nil), s7.prepare(nil)); err != nil {
		t.Fatal(err)
	}
	if s1.arrivals[0] == s7.arrivals[0] {
		t.Error("serve starts its script at the same phase on seeds 1 and 7")
	}
}

// TestCorruptedReferenceFails flips one bit of one reference checksum:
// the job that returns the right answer must now count as failed.
func TestCorruptedReferenceFails(t *testing.T) {
	w, err := newFigs(1, shortSizes)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.prepare(nil); err != nil {
		t.Fatal(err)
	}
	w.cells[0].ref ^= 1
	res := w.iterate(context.Background(), nil)
	if res.failed != 1 || res.endToEnd()["correct_share"] >= 1 {
		t.Errorf("failed = %d, correct_share = %v after corrupting one reference",
			res.failed, res.endToEnd()["correct_share"])
	}

	s := newServe(1, shortSizes)
	if err := s.prepare(nil); err != nil {
		t.Fatal(err)
	}
	s.refs[0] ^= 1
	if res := s.iterate(context.Background(), nil); res.failed != 1 {
		t.Errorf("serve: failed = %d after corrupting one reference", res.failed)
	}
}

// TestFailedGuardFailsEveryJob checks a diverged machine cannot print
// plausible numbers: the run is incorrect and correct_share is 0.
func TestFailedGuardFailsEveryJob(t *testing.T) {
	opt := shortOptions("exec", false)
	opt.guard = func(context.Context) error { return errors.New("golden differs") }
	rep, err := runWorkload(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed != rep.Attempted || rep.Metrics["correct_share"].Value != 0 {
		t.Errorf("correct=%v failed=%d/%d correct_share=%v", rep.Correct, rep.Failed, rep.Attempted,
			rep.Metrics["correct_share"].Value)
	}
}

// TestGoldenGuard replays the quick Figure-4 tables against the
// checked-in golden file, as every real run does first.
func TestGoldenGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("Figure-4 replay skipped in -short mode")
	}
	if err := guardFig4(context.Background(), ".."); err != nil {
		t.Error(err)
	}
}

// TestCancelledRunNamesItsFailures checks the timeout path: a cancelled
// context fails the jobs instead of hanging or passing.
func TestCancelledRunNamesItsFailures(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range workloadNames {
		w, err := newWorkload(name, 1, shortSizes)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.prepare(nil); err != nil {
			t.Fatal(err)
		}
		res := w.iterate(ctx, nil)
		if res.failed == 0 || res.failed != res.attempted {
			t.Errorf("%s: %d of %d jobs failed under a cancelled context", name, res.failed, res.attempted)
		}
	}
}

// TestSpanTree checks the traced iteration of every workload: children
// inside parents, no negative self time, and self times that sum to the
// root span within 1 %.
func TestSpanTree(t *testing.T) {
	for _, name := range workloadNames {
		tr := newTracer()
		done := tr.begin("bench", "iteration", -1)
		_, res := iterateOnce(t, name, 1, tr)
		done()
		if res.failed != 0 {
			t.Fatalf("%s: %v", name, res.errs)
		}
		if err := checkSpans(tr.spans); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(tr.open) != 0 {
			t.Errorf("%s: %d spans left open", name, len(tr.open))
		}
		var sum int64
		for _, ns := range selfTimes(tr.spans) {
			sum += ns
		}
		root := tr.spans[0].End - tr.spans[0].Start
		if diff := math.Abs(float64(sum-root)) / float64(root); diff > 0.01 {
			t.Errorf("%s: self times sum to %d ns, root span is %d ns", name, sum, root)
		}
		layers := layerSeconds(tr.spans)
		for _, key := range map[string][]string{
			"figs":    {"workloads.build", "classfile.resolve", "core.boot", "core.submit", "core.run"},
			"exec":    {"workloads.build", "classfile.resolve", "core.boot", "core.submit", "core.run"},
			"serve":   {"workloads.build", "classfile.resolve", "core.boot", "core.submit", "core.run", "core.results"},
			"cluster": {"workloads.build", "classfile.resolve", "cluster.boot", "cluster.submit", "cluster.drain", "cluster.results"},
		}[name] {
			if layers[key] <= 0 {
				t.Errorf("%s: no time recorded for %s", name, key)
			}
		}
	}
}

func TestCheckSpansRejectsMalformedTrees(t *testing.T) {
	for what, spans := range map[string][]span{
		"child outside parent": {{Start: 0, End: 10, Parent: -1}, {Start: 5, End: 12, Parent: 0}},
		"overlapping children": {{Start: 0, End: 10, Parent: -1}, {Start: 0, End: 8, Parent: 0}, {Start: 4, End: 10, Parent: 0}},
		"unclosed span":        {{Start: 5, End: 0, Parent: -1}},
	} {
		if checkSpans(spans) == nil {
			t.Errorf("%s accepted", what)
		}
	}
}

// TestQuartilesMatchPython pins the quartile rule to the values
// Python's statistics.quantiles(n=4) and statistics.median give.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || med != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{2, 1, 3})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v, want 1 2 3", q1, med, q3)
	}
}

// TestCompare exercises -compare on written result files: identical
// sets pass; a changed simulated metric, a host metric past its bound
// and an incorrect run are each named; a metric whose own spread
// exceeds its bound is unresolved, not unchanged.
func TestCompare(t *testing.T) {
	manifestPath := filepath.Join("..", "BENCHMARK.json")
	f := func(v float64) *float64 { return &v }
	base := report{Workload: "exec", Seed: 1, Correct: true, Attempted: 3, Metrics: map[string]metricValue{
		"wall_s":     {Value: 2.0, Unit: "s", Q1: f(1.98), Q3: f(2.02), N: 5},
		"sim_mips":   {Value: 100, Unit: "Minstr/s", Q1: f(99), Q3: f(101), N: 5},
		"sim_cycles": {Value: 1000, Unit: "cycles"},
	}}
	write := func(dir string, rep report) {
		t.Helper()
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeAtomic(filepath.Join(dir, "exec.json"), data); err != nil {
			t.Fatal(err)
		}
	}
	with := func(change func(*report)) string {
		rep := base
		rep.Metrics = map[string]metricValue{}
		for k, v := range base.Metrics {
			rep.Metrics[k] = v
		}
		change(&rep)
		dir := t.TempDir()
		write(dir, rep)
		return dir
	}
	a := with(func(*report) {})

	cases := []struct {
		name      string
		change    func(*report)
		offenders []string
		verdict   string
	}{
		{"same", func(*report) {}, nil, "within bound"},
		{"slower within bound", func(r *report) {
			r.Metrics["wall_s"] = metricValue{Value: 2.1, Unit: "s", Q1: f(2.08), Q3: f(2.12), N: 5}
		}, nil, "within bound"},
		{"slower past bound", func(r *report) {
			r.Metrics["wall_s"] = metricValue{Value: 2.6, Unit: "s", Q1: f(2.58), Q3: f(2.62), N: 5}
		}, []string{"exec/wall_s"}, "WORSE"},
		{"throughput down past bound", func(r *report) {
			r.Metrics["sim_mips"] = metricValue{Value: 70, Unit: "Minstr/s", Q1: f(69), Q3: f(71), N: 5}
		}, []string{"exec/sim_mips"}, "WORSE"},
		{"throughput up", func(r *report) {
			r.Metrics["sim_mips"] = metricValue{Value: 150, Unit: "Minstr/s", Q1: f(149), Q3: f(151), N: 5}
		}, nil, "within bound"},
		{"noisy", func(r *report) {
			r.Metrics["wall_s"] = metricValue{Value: 2.0, Unit: "s", Q1: f(1.7), Q3: f(2.3), N: 5}
		}, nil, "unresolved"},
		{"simulated machine moved", func(r *report) {
			r.Metrics["sim_cycles"] = metricValue{Value: 1001, Unit: "cycles"}
		}, []string{"exec/sim_cycles"}, "DIFFERS"},
		{"incorrect", func(r *report) { r.Correct, r.Failed = false, 1 }, []string{"exec/correct"}, "not correct"},
	}
	for _, c := range cases {
		var out strings.Builder
		offenders, err := compareResults(&out, manifestPath, a, with(c.change))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if strings.Join(offenders, ",") != strings.Join(c.offenders, ",") {
			t.Errorf("%s: offenders %v, want %v\n%s", c.name, offenders, c.offenders, out.String())
		}
		if !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: no %q row in\n%s", c.name, c.verdict, out.String())
		}
	}
}

// TestBaselinesAgreeWithCatalogue checks the checked-in result set:
// every workload in both modes, each holding exactly the catalogue's
// metrics, correct, and identical to itself under -compare.
func TestBaselinesAgreeWithCatalogue(t *testing.T) {
	reports, err := loadReports("baselines")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for key, defs := range map[string][]metricDef{name + ".trace0": endToEndDefs, name + ".trace1": perLayerDefs} {
			rep := reports[key]
			if rep == nil {
				t.Errorf("baselines hold no %s result", key)
				continue
			}
			if !rep.Correct || len(rep.Metrics) != len(defs) {
				t.Errorf("baselines %s: correct=%v with %d metrics, want %d", key, rep.Correct, len(rep.Metrics), len(defs))
			}
		}
	}
	offenders, err := compareResults(io.Discard, filepath.Join("..", "BENCHMARK.json"), "baselines", "baselines")
	if err != nil || len(offenders) != 0 {
		t.Errorf("baselines against themselves: %v %v", offenders, err)
	}
}
