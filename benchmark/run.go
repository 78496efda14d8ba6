package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"herajvm/internal/experiments"
)

// options says what one process measures.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sz       sizes
	// setupPasses is how many times set-up is repeated (setup_s is the
	// median); minIters the fewest measured iterations whatever
	// -seconds says; probeBudget the host time per probe loop.
	setupPasses int
	minIters    int
	probeBudget time.Duration
	// guard is the simulated-identity guard run before anything is
	// measured (guardFig4 against the checkout's golden file).
	guard func(context.Context) error
	// outDir receives the result and trace files, "" writes none.
	outDir string
	log    io.Writer
}

func defaultOptions() options {
	return options{seed: 1, seconds: runSeconds, sz: fullSizes,
		setupPasses: 3, minIters: 3, probeBudget: 100 * time.Millisecond, log: io.Discard}
}

// maxIters stops a run on a machine so fast that -seconds would collect
// an unbounded sample list.
const maxIters = 200

// metricValue is one reported number. Host metrics carry the quartiles
// and count of the samples their median was taken over.
type metricValue struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Q1    *float64 `json:"q1,omitempty"`
	Q3    *float64 `json:"q3,omitempty"`
	N     int      `json:"n,omitempty"`
	// Samples are the per-iteration values, in run order.
	Samples []float64 `json:"samples,omitempty"`
}

// report is the result of one run, written to out/<workload>.json
// (untraced) or out/<workload>.layers.json (traced).
type report struct {
	Workload   string      `json:"workload"`
	Seed       uint64      `json:"seed"`
	Trace      int         `json:"trace"`
	Seconds    float64     `json:"seconds"`
	Machine    machineInfo `json:"machine"`
	Iterations int         `json:"iterations"`
	// LatencySamples is how many completed jobs the latency percentiles
	// were taken over.
	LatencySamples int                    `json:"latency_samples"`
	Correct        bool                   `json:"correct"`
	Attempted      int                    `json:"attempted"`
	Failed         int                    `json:"failed"`
	Notes          []string               `json:"notes,omitempty"`
	Metrics        map[string]metricValue `json:"metrics"`
}

// resultLine is the last line of standard output.
func (r *report) resultLine() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(r.Metrics))
	for name, m := range r.Metrics {
		metrics[name] = mv{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.median and statistics.quantiles(n=4) give them
// (the exclusive method), so the spread printed here is the one the
// driver computes.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0, 0, 0
	case n == 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med = s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return at(1), med, at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// guardFig4 is the simulated-identity guard: the quick Figure-4 tables
// must equal testdata/golden_fig4.txt byte for byte, or every number the
// run would print comes from a machine that has diverged.
func guardFig4(ctx context.Context, root string) error {
	golden, err := os.ReadFile(filepath.Join(root, "testdata", "golden_fig4.txt"))
	if err != nil {
		return fmt.Errorf("figure-4 guard: %w", err)
	}
	opt := experiments.Quick()
	opt.Ctx = ctx
	a, err := experiments.RunFig4a(opt)
	if err != nil {
		return fmt.Errorf("figure-4 guard: %w", err)
	}
	b, err := experiments.RunFig4b(opt)
	if err != nil {
		return fmt.Errorf("figure-4 guard: %w", err)
	}
	if got := a.Table() + "\n" + b.Table() + "\n"; got != string(golden) {
		return fmt.Errorf("figure-4 guard: tables differ from testdata/golden_fig4.txt:\n%s", got)
	}
	return nil
}

// run is the state of one measured process.
type run struct {
	opt  options
	ctx  context.Context
	w    workload
	rep  *report
	vals map[string][]float64 // host samples per metric
	// want is the first iteration's simulated numbers; every later
	// iteration must reproduce them. wantTable is the cluster's serial
	// reference table.
	want      map[string]float64
	wantTable string
	first     *simResult
	// broken is set when a guard fails: the run reports every job failed.
	broken bool
}

func (r *run) note(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(r.opt.log, "benchmark:", msg)
	if len(r.rep.Notes) < 16 {
		r.rep.Notes = append(r.rep.Notes, msg)
	}
}

// check holds one iteration to the simulated identity of the run.
func (r *run) check(res *simResult, counted bool) {
	if counted {
		r.rep.Attempted += res.attempted
		r.rep.Failed += res.failed
	}
	for _, err := range res.errs {
		r.note("%s: %v", r.opt.workload, err)
	}
	got := res.exact()
	if r.want == nil {
		r.want, r.first = got, res
	} else if name := diverged(r.want, got); name != "" {
		r.broken = true
		r.note("%s: %s changed between iterations of one run (%v, then %v)", r.opt.workload, name, r.want[name], got[name])
	}
	if r.wantTable != "" && res.jobsTable != r.wantTable {
		r.broken = true
		r.note("%s: parallel job table differs from the serial pass", r.opt.workload)
	}
}

// timed runs one iteration between two host samples. The collection
// first gives every iteration the same heap to start from: what the
// previous iteration left behind is an artefact of looping, and it
// decides when the next collections fall.
func (r *run) timed(tr *tracer) (*simResult, hostDelta) {
	runtime.GC()
	before := sampleHost()
	done := tr.begin("bench", "iteration", -1)
	res := r.w.iterate(r.ctx, tr)
	done()
	return res, before.until(sampleHost())
}

func (r *run) sample(name string, v float64) { r.vals[name] = append(r.vals[name], v) }

// setMedian publishes the median of a metric's samples with quartiles.
func (r *run) setMedian(name string) {
	q1, med, q3 := quartiles(r.vals[name])
	r.set(name, med)
	m := r.rep.Metrics[name]
	m.Q1, m.Q3, m.N, m.Samples = &q1, &q3, len(r.vals[name]), r.vals[name]
	r.rep.Metrics[name] = m
}

func (r *run) set(name string, v float64) {
	r.rep.Metrics[name] = metricValue{Value: v, Unit: metricByName[name].Unit}
}

// runWorkload measures one workload in this process.
func runWorkload(ctx context.Context, opt options) (*report, error) {
	w, err := newWorkload(opt.workload, opt.seed, opt.sz)
	if err != nil {
		return nil, err
	}
	trace := 0
	if opt.trace {
		trace = 1
	}
	r := &run{opt: opt, ctx: ctx, w: w, vals: map[string][]float64{},
		rep: &report{Workload: opt.workload, Seed: opt.seed, Trace: trace, Seconds: opt.seconds,
			Machine: thisMachine(), Metrics: map[string]metricValue{}}}

	guardStart := time.Now()
	if err := opt.guard(ctx); err != nil {
		r.broken = true
		r.note("%v", err)
	}
	guardS := time.Since(guardStart).Seconds()

	// The traced run keeps the spans of its (single) prepare beside
	// those of its last traced iteration.
	var prepTrace, iterTrace *tracer
	if opt.trace {
		prepTrace = newTracer()
	}

	// Set-up: derive the inputs, then one full iteration no host metric
	// counts, which grows the Go heap to its working size. Repeated so
	// setup_s is a median; the first pass also pays the process's
	// one-time costs and is published apart as host.setup_cold_s.
	passes := opt.setupPasses
	if opt.trace {
		passes = 1
	}
	for i := 0; i < passes; i++ {
		start := time.Now()
		done := prepTrace.begin("bench", "prepare", -1)
		err := w.prepare(prepTrace)
		done()
		if err != nil {
			return nil, fmt.Errorf("%s: preparing inputs: %w", opt.workload, err)
		}
		r.check(w.iterate(ctx, nil), false)
		r.sample("setup_s", time.Since(start).Seconds())
	}
	if c, ok := w.(*cluster); ok {
		// Serial identity pass: same script, shards advanced one at a
		// time on this goroutine. Its merged job table is the reference
		// every parallel pass of the run must reproduce byte for byte.
		guardStart = time.Now()
		c.serial = true
		ref := c.iterate(ctx, nil)
		c.serial = false
		r.wantTable = r.first.jobsTable
		r.check(ref, false)
		r.wantTable = ref.jobsTable
		guardS += time.Since(guardStart).Seconds()
	}

	if opt.trace {
		if iterTrace, err = r.measureTraced(guardS, prepTrace); err != nil {
			return nil, err
		}
	} else {
		r.measure()
	}

	if r.broken {
		r.rep.Failed = r.rep.Attempted
	}
	r.rep.Correct = r.rep.Failed == 0 && !r.broken
	if opt.outDir != "" {
		if err := r.write(prepTrace, iterTrace); err != nil {
			return nil, err
		}
	}
	return r.rep, nil
}

// measure is the untraced run: iterations until -seconds have passed,
// the median of each host metric, the exact simulated metrics.
func (r *run) measure() {
	start := time.Now()
	n := 0
	for ; n < maxIters && (n < r.opt.minIters || time.Since(start).Seconds() < r.opt.seconds); n++ {
		res, d := r.timed(nil)
		r.check(res, true)
		r.sample("wall_s", d.wallS)
		r.sample("cpu_s", d.cpuS)
		r.sample("alloc_mb", d.allocMB)
		r.sample("sim_mips", float64(res.tally.cores.Instrs)/d.wallS/1e6)
	}
	r.rep.Iterations = n
	for _, name := range []string{"setup_s", "wall_s", "cpu_s", "alloc_mb", "sim_mips"} {
		r.setMedian(name)
	}
	r.publishSim(r.first.endToEnd())
}

// publishSim publishes simulated numbers; when a guard has failed they
// describe a diverged machine, so correct_share drops to 0 with them.
func (r *run) publishSim(values map[string]float64) {
	for name, v := range values {
		r.set(name, v)
	}
	r.rep.LatencySamples = len(r.first.latencies)
	if _, ok := values["correct_share"]; ok && r.broken {
		r.set("correct_share", 0)
	}
}

// measureTraced is the traced run: untraced and traced iterations
// alternate for -seconds (their ratio is the tracing overhead), then the
// probes run. It returns the last traced iteration's spans.
func (r *run) measureTraced(guardS float64, prepTrace *tracer) (*tracer, error) {
	start := time.Now()
	var last *tracer
	var jobs int
	n := 0
	for ; n < maxIters && (n < 1 || time.Since(start).Seconds() < r.opt.seconds); n++ {
		res, d := r.timed(nil)
		r.check(res, true)
		jobs = res.attempted
		r.sample("untraced_wall_s", d.wallS)
		r.sample("host.mallocs", d.mallocs)
		r.sample("host.gc_count", d.gcs)
		r.sample("host.gc_pause_ms", d.gcPauseMs)

		last = newTracer()
		res, d = r.timed(last)
		r.check(res, true)
		r.sample("traced_wall_s", d.wallS)
		if err := checkSpans(last.spans); err != nil {
			return nil, fmt.Errorf("%s: traced iteration: %w", r.opt.workload, err)
		}
		for name, s := range r.layerMetrics(last.spans, d.wallS) {
			r.sample(name, s)
		}
	}
	r.rep.Iterations = 2 * n

	for key, sec := range layerSeconds(prepTrace.spans) {
		r.sample(key+"_s", sec)
	}
	for _, d := range perLayerDefs {
		r.set(d.Name, 0) // a layer the workload never enters reads 0
		if len(r.vals[d.Name]) > 0 {
			r.setMedian(d.Name)
		}
	}
	_, wall, _ := quartiles(r.vals["untraced_wall_s"])
	_, traced, _ := quartiles(r.vals["traced_wall_s"])
	r.set("bench.guard_s", guardS)
	r.set("host.trace_overhead", traced/wall-1)
	r.set("host.iter_spread", spread(append(r.vals["untraced_wall_s"], r.vals["traced_wall_s"]...)))
	r.set("host.jobs_per_s", float64(jobs)/wall)
	r.set("host.ns_per_sim_cycle", wall*1e9/float64(r.first.cycles))
	r.set("host.setup_cold_s", r.vals["setup_s"][0])
	r.publishSim(r.first.counters())

	probes, err := runProbes(r.ctx, r.opt.probeBudget, r.opt.sz.probeScale)
	if err != nil {
		return nil, fmt.Errorf("%s: probes: %w", r.opt.workload, err)
	}
	for name, v := range probes {
		r.set(name, v)
	}
	r.set("host.peak_rss_mb", peakRSSMB())
	return last, nil
}

// layerMetrics turns one traced iteration's spans into seconds of self
// time per layer call, the shares of the two calls an optimisation is
// most likely to move, and the run time of each paper program on the
// closed loops.
func (r *run) layerMetrics(spans []span, wallS float64) map[string]float64 {
	out := map[string]float64{}
	for key, s := range layerSeconds(spans) {
		out[key+"_s"] = s
	}
	out["core.boot_share"] = out["core.boot_s"] / wallS
	out["core.run_share"] = out["core.run_s"] / wallS
	if loop, ok := r.w.(*closedLoop); ok {
		self := selfTimes(spans)
		for i, s := range spans {
			if s.Layer == "core" && s.Name == "run" {
				out["core.run_s."+loop.programOf(s.Req)] += float64(self[i]) / 1e9
			}
		}
	}
	delete(out, "bench.iteration_s")
	return out
}

// write stores the report (and, traced, the spans) atomically.
func (r *run) write(prepTrace, iterTrace *tracer) error {
	if err := os.MkdirAll(r.opt.outDir, 0o755); err != nil {
		return err
	}
	name := r.opt.workload + ".json"
	if r.opt.trace {
		name = r.opt.workload + ".layers.json"
	}
	data, err := json.MarshalIndent(r.rep, "", "  ")
	if err != nil {
		return err
	}
	if err := writeAtomic(filepath.Join(r.opt.outDir, name), append(data, '\n')); err != nil {
		return err
	}
	if iterTrace == nil {
		return nil
	}
	spans, err := json.Marshal(map[string][]span{"prepare": prepTrace.spans, "iteration": iterTrace.spans})
	if err != nil {
		return err
	}
	return writeAtomic(filepath.Join(r.opt.outDir, "trace_"+r.opt.workload+".json"), spans)
}

// writeAtomic writes a sibling temporary file and renames it into
// place, so a reader never sees half a result.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err = tmp.Chmod(0o644); err == nil {
		_, err = tmp.Write(data)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// printTable lists every metric by name with its unit.
func (r *report) printTable(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s  seed %d  trace %d  iterations %d  jobs attempted %d failed %d  latency samples %d\n",
		r.Workload, r.Seed, r.Trace, r.Iterations, r.Attempted, r.Failed, r.LatencySamples)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-36s %18.6g %-10s", name, m.Value, m.Unit)
		if m.Q1 != nil {
			fmt.Fprintf(w, " q1 %.6g q3 %.6g n %d", *m.Q1, *m.Q3, m.N)
		}
		fmt.Fprintln(w)
	}
}
