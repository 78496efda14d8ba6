package main

import (
	"context"
	"fmt"

	hera "herajvm"
	"herajvm/internal/experiments"
	"herajvm/internal/workloads"
)

// workload is one set of inputs the benchmark runs. prepare derives the
// inputs from the seed; iterate plays them once on freshly booted
// machines and reports what happened on the simulated clock. Both drive
// the system through public functions only and wrap each call in a span.
type workload interface {
	prepare(tr *tracer) error
	iterate(ctx context.Context, tr *tracer) *simResult
}

// sizes fixes how much work one iteration does. fullSizes is what
// BENCHMARK.json measures (each iteration sized to about two host
// seconds on the 2-core box the baselines came from); shortSizes keeps
// the package's own tests under ten seconds.
type sizes struct {
	figsPrograms []string
	figsTopos    []string
	// execScale is the scale the exec loop runs a paper program at;
	// probeScale the scale the executor and JIT probes build it at.
	execScale   func(hera.Workload) int
	probeScale  func(hera.Workload) int
	serveJobs   int
	clusterJobs int
}

var fullSizes = sizes{
	figsPrograms: []string{"compress", "mpegaudio", "mandelbrot", "matmul", "nbody", "kmeans"},
	figsTopos:    []string{"ppe:1", "ppe:1,spe:2", "ppe:1,spe:6", "ppe:1,spe:4,vpu:2"},
	execScale:    func(spec hera.Workload) int { return 3 * spec.DefaultScale },
	probeScale:   func(spec hera.Workload) int { return spec.DefaultScale },
	serveJobs:    120,
	clusterJobs:  60,
}

var shortSizes = sizes{
	figsPrograms: []string{"mandelbrot", "matmul"},
	figsTopos:    []string{"ppe:1", "ppe:1,spe:4,vpu:2"},
	execScale:    func(hera.Workload) int { return 1 },
	probeScale:   func(hera.Workload) int { return 1 },
	serveJobs:    12,
	clusterJobs:  8,
}

var workloadNames = []string{"figs", "exec", "serve", "cluster"}

func newWorkload(name string, seed uint64, sz sizes) (workload, error) {
	switch name {
	case "figs":
		return newFigs(seed, sz)
	case "exec":
		return newExec(seed, sz), nil
	case "serve":
		return newServe(seed, sz), nil
	case "cluster":
		return newCluster(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// prng is splitmix64: fully specified, so a seed names the same inputs
// on every Go release.
type prng struct{ state uint64 }

func (p *prng) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// perm returns a seeded permutation of 0..n-1 (Fisher-Yates).
func (p *prng) perm(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(p.next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// refCache memoizes Spec.Reference: a sweep names the same (program,
// threads, scale) many times and the reference is pure Go.
type refCache map[string]int32

func (c refCache) of(spec hera.Workload, threads, scale int) int32 {
	key := fmt.Sprintf("%s/%d/%d", spec.Name, threads, scale)
	if v, ok := c[key]; ok {
		return v
	}
	v := spec.Reference(threads, scale)
	c[key] = v
	return v
}

// --- closed loops: figs and exec -------------------------------------

// coldCell is one cold run: build the program, resolve and verify it, boot
// a fresh System, run one job, check the checksum.
type coldCell struct {
	spec    hera.Workload
	threads int
	scale   int
	topo    hera.Topology
	sched   string
	ref     int32
}

// closedLoop runs its cells one after another with one client: the next
// guest program starts when the previous one finished. The seed decides
// the visiting order only; every cell boots its own machine, so the
// simulated results do not depend on it.
type closedLoop struct {
	seed  uint64
	cells []coldCell
	order []int
}

const closedLoopThreads = 6

// newFigs builds the herabench-shaped sweep: every program at scale 1
// on every topology under every scheduler.
func newFigs(seed uint64, sz sizes) (*closedLoop, error) {
	w := &closedLoop{seed: seed}
	for _, name := range sz.figsPrograms {
		spec, err := hera.WorkloadByName(name)
		if err != nil {
			return nil, err
		}
		for _, ts := range sz.figsTopos {
			topo, err := hera.ParseTopology(ts)
			if err != nil {
				return nil, err
			}
			for _, s := range hera.Schedulers() {
				w.cells = append(w.cells, coldCell{spec: spec, threads: closedLoopThreads, scale: 1, topo: topo, sched: s})
			}
		}
	}
	return w, nil
}

// newExec builds the steady-state executor loop: the paper's three
// programs, long, on the PS3 shape under the default scheduler.
func newExec(seed uint64, sz sizes) *closedLoop {
	w := &closedLoop{seed: seed}
	cfg := hera.DefaultConfig()
	for _, spec := range hera.Workloads() {
		w.cells = append(w.cells, coldCell{spec: spec, threads: closedLoopThreads,
			scale: sz.execScale(spec), topo: cfg.Machine.Topology, sched: cfg.Scheduler})
	}
	return w
}

func (w *closedLoop) prepare(tr *tracer) error {
	done := tr.begin("bench", "reference", -1)
	refs := refCache{}
	for i := range w.cells {
		c := &w.cells[i]
		c.ref = refs.of(c.spec, c.threads, c.scale)
	}
	done()
	w.order = (&prng{state: w.seed}).perm(len(w.cells))
	return nil
}

// programOf names the guest program a span's req belongs to.
func (w *closedLoop) programOf(req int) string { return w.cells[req].spec.Name }

func (w *closedLoop) iterate(ctx context.Context, tr *tracer) *simResult {
	r := &simResult{clockHz: hera.DefaultConfig().Machine.EffectiveClockHz()}
	for _, ci := range w.order {
		if ctx.Err() != nil {
			r.attempted++
			r.fail(ctx.Err())
			continue
		}
		w.runCell(tr, ci, r)
	}
	return r
}

func (w *closedLoop) runCell(tr *tracer, ci int, r *simResult) {
	c := w.cells[ci]
	abort := func(err error) {
		r.attempted++
		r.fail(fmt.Errorf("%s on %s/%s: %w", c.spec.Name, c.topo, c.sched, err))
	}

	done := tr.begin("workloads", "build", ci)
	prog, err := c.spec.Build(c.threads, c.scale)
	done()
	if err != nil {
		abort(err)
		return
	}
	done = tr.begin("classfile", "resolve", ci)
	err = prog.Resolve()
	done()
	if err != nil {
		abort(err)
		return
	}

	cfg := hera.DefaultConfig()
	cfg.Machine.Topology = c.topo
	cfg.Scheduler = c.sched
	done = tr.begin("core", "boot", ci)
	sys, err := hera.NewSystem(cfg, prog)
	done()
	if err != nil {
		abort(err)
		return
	}

	done = tr.begin("core", "submit", ci)
	job, _, err := sys.Submit(hera.JobRequest{Class: c.spec.MainClass, Method: "main"})
	done()
	if err != nil {
		abort(err)
		return
	}
	done = tr.begin("core", "run", ci)
	res, err := job.Wait()
	done()

	r.addJob(res, err, c.ref, 0)
	if res != nil {
		r.cycles += res.CompletedAt
	}
	r.tally.addMachine(sys)
}

// --- open loops: serve and cluster -----------------------------------

// mixPart is one slot of a round-robin job mix.
type mixPart struct {
	name  string
	scale int
}

const (
	mixThreads = 2
	// openDeadline is every open-loop job's completion deadline, in
	// cycles relative to its admission.
	openDeadline = 60_000_000
	// arrivalPhaseMod bounds the seeded start phase added to every
	// arrival: less than one default scheduling quantum, so the seed
	// moves where the script sits against the machine's quanta without
	// changing how much work it carries.
	arrivalPhaseMod = 4000
)

// serveMix interleaves the paper's programs with data-parallel kernel
// launches; clusterMix is the paper mix alone, because a job with a
// kernel in flight cannot be frozen and a mix of short kernel jobs never
// hands off.
var (
	serveMix = []mixPart{{"compress", 1}, {"matmul", 1}, {"mpegaudio", 2},
		{"nbody", 1}, {"mandelbrot", 1}, {"kmeans", 1}}
	clusterMix = []mixPart{{"compress", 1}, {"mpegaudio", 2}, {"mandelbrot", 1}}
)

// script is an open-loop arrival script: job i, built from entries[i],
// is due at arrivals[i] whatever the backlog.
type script struct {
	entries  []workloads.MixEntry
	refs     []int32
	arrivals []uint64
}

// newScript generates the inputs of an open-loop workload. The bursty
// trace is deterministic by construction (its generator draws nothing
// from the seed), which keeps the offered load — and so the host work —
// the same on every seed; the seed sets the script's start phase.
func newScript(tr *tracer, seed uint64, mix []mixPart, jobs int, meanGap uint64) (*script, error) {
	s := &script{entries: make([]workloads.MixEntry, jobs), refs: make([]int32, jobs)}
	done := tr.begin("bench", "reference", -1)
	refs := refCache{}
	for i := range s.entries {
		part := mix[i%len(mix)]
		spec, err := hera.WorkloadByName(part.name)
		if err != nil {
			done()
			return nil, err
		}
		s.entries[i] = workloads.MixEntry{Spec: spec, Threads: mixThreads, Scale: part.scale}
		s.refs[i] = refs.of(spec, mixThreads, part.scale)
	}
	done()

	done = tr.begin("experiments", "arrivals", -1)
	arrivals, err := experiments.Arrivals("bursty", seed, jobs, meanGap)
	done()
	if err != nil {
		return nil, err
	}
	phase := (&prng{state: seed}).next() % arrivalPhaseMod
	for i := range arrivals {
		arrivals[i] += phase
	}
	s.arrivals = arrivals
	return s, nil
}

func (s *script) request(i int) hera.JobRequest {
	e := s.entries[i]
	return hera.JobRequest{
		Class:    e.MainClassOf(i),
		Method:   "main",
		Name:     fmt.Sprintf("%s#%d", e.Spec.Name, i),
		Arrival:  s.arrivals[i],
		Deadline: openDeadline,
	}
}

// buildMix builds and resolves the script's program under spans.
func (s *script) buildMix(tr *tracer) (*hera.Program, error) {
	done := tr.begin("workloads", "build", -1)
	prog, err := workloads.BuildMix(s.entries)
	done()
	if err != nil {
		return nil, err
	}
	done = tr.begin("classfile", "resolve", -1)
	err = prog.Resolve()
	done()
	return prog, err
}

// failAll counts every job of the script as failed: the machine is gone.
func (s *script) failAll(r *simResult, err error) {
	for range s.entries {
		r.attempted++
		r.fail(err)
	}
}

// serve is the open loop on one System, run just past saturation so the
// admission pipeline sheds some arrivals but most jobs run.
type serve struct {
	seed uint64
	jobs int
	*script
}

const serveMeanGap = 1_750_000

func newServe(seed uint64, sz sizes) *serve {
	return &serve{seed: seed, jobs: sz.serveJobs}
}

func (w *serve) prepare(tr *tracer) (err error) {
	w.script, err = newScript(tr, w.seed, serveMix, w.jobs, serveMeanGap)
	return err
}

func (w *serve) iterate(ctx context.Context, tr *tracer) *simResult {
	cfg := hera.DefaultConfig()
	cfg.Machine.Topology = experiments.DefaultServeTopology()
	cfg.Scheduler = "migrate"
	cfg.Admission = hera.AdmissionConfig{MaxPending: 32, Shed: true}
	r := &simResult{clockHz: cfg.Machine.EffectiveClockHz()}

	prog, err := w.buildMix(tr)
	if err != nil {
		w.failAll(r, err)
		return r
	}
	done := tr.begin("core", "boot", -1)
	sys, err := hera.NewSystem(cfg, prog)
	done()
	if err != nil {
		w.failAll(r, err)
		return r
	}

	jobs := make([]*hera.Job, len(w.entries))
	for i := range w.entries {
		// Open loop: advance simulated time to the arrival first, so the
		// verdict is decided against the machine state holding then.
		done = tr.begin("core", "run", i)
		err = sys.RunUntil(w.arrivals[i])
		done()
		if err == nil {
			err = ctx.Err()
		}
		if err != nil {
			w.failAll(r, fmt.Errorf("advancing to job %d: %w", i, err))
			return r
		}
		done = tr.begin("core", "submit", i)
		jobs[i], _, err = sys.Submit(w.request(i))
		done()
		if err != nil {
			w.failAll(r, fmt.Errorf("submit job %d: %w", i, err))
			return r
		}
	}
	done = tr.begin("core", "run", -1)
	err = sys.Drain()
	done()
	if err != nil {
		w.failAll(r, err)
		return r
	}

	done = tr.begin("core", "results", -1)
	for i, job := range jobs {
		res, err := job.Wait() // already done: returns the stored result
		r.addJob(res, err, w.refs[i], w.arrivals[i])
		if res != nil && !res.Shed && res.CompletedAt > r.cycles {
			r.cycles = res.CompletedAt // makespan
		}
	}
	done()
	r.tally.addMachine(sys)
	return r
}

// cluster is the open loop through the sharded dispatcher on an
// imbalanced two-shard fleet with hand-off on: the only workload with
// host parallelism (one goroutine per shard).
type cluster struct {
	seed uint64
	jobs int
	// serial advances the shards on the calling goroutine; the identity
	// guard plays one such pass and demands the same merged job table.
	serial bool
	*script
}

const (
	clusterMeanGap = 3_000_000
	clusterStride  = 500_000
)

func newCluster(seed uint64, sz sizes) *cluster {
	return &cluster{seed: seed, jobs: sz.clusterJobs}
}

func (w *cluster) prepare(tr *tracer) (err error) {
	w.script, err = newScript(tr, w.seed, clusterMix, w.jobs, clusterMeanGap)
	return err
}

func (w *cluster) iterate(ctx context.Context, tr *tracer) *simResult {
	topos := experiments.DefaultHandoffShards()
	shards := make([]hera.ShardConfig, len(topos))
	for i, topo := range topos {
		cfg := hera.DefaultConfig()
		cfg.Machine.Topology = topo
		cfg.Scheduler = "migrate"
		// Build runs on the booting goroutine, inside the boot span.
		shards[i] = hera.ShardConfig{Cfg: cfg, Build: func() (*hera.Program, error) { return w.buildMix(tr) }}
	}
	r := &simResult{clockHz: hera.DefaultConfig().Machine.EffectiveClockHz()}

	done := tr.begin("cluster", "boot", -1)
	cl, err := hera.BootCluster(hera.ClusterConfig{EpochStride: clusterStride, Serial: w.serial,
		Shed: true, Handoff: true, Ctx: ctx}, shards)
	done()
	if err != nil {
		w.failAll(r, err)
		return r
	}

	for i := range w.entries {
		done = tr.begin("cluster", "submit", i)
		_, _, err = cl.Submit(w.request(i))
		done()
		if err != nil {
			w.failAll(r, fmt.Errorf("submit job %d: %w", i, err))
			return r
		}
	}
	done = tr.begin("cluster", "drain", -1)
	err = cl.Drain()
	done()
	if err != nil {
		w.failAll(r, err)
		return r
	}

	done = tr.begin("cluster", "results", -1)
	results, err := cl.Results()
	if err == nil {
		r.jobsTable, err = cl.JobsTable()
	}
	done()
	if err != nil {
		w.failAll(r, err)
		return r
	}
	for _, res := range results {
		r.addJob(res.Res, res.Err, w.refs[res.Seq], w.arrivals[res.Seq])
		if !res.Res.Shed && res.Res.CompletedAt > r.cycles {
			r.cycles = res.Res.CompletedAt // last completion
		}
		r.tally.handoffs += res.Handoffs
	}
	r.tally.barriers = cl.Barriers()
	for i, s := range cl.Shards() {
		r.tally.addMachine(s.Sys)
		if i < len(r.tally.routed) {
			r.tally.routed[i] = s.Routed
			r.tally.util[i] = s.Utilization()
		}
	}
	return r
}
