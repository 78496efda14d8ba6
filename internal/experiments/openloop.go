package experiments

import (
	"cmp"
	"fmt"
	"sort"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
	"herajvm/internal/vm"
	"herajvm/internal/workloads"
)

// The open-loop figures (serve, cluster) share everything on either
// side of the machine under test: one arrival script resolved from the
// options, one request builder, one shard configuration and one fold of
// per-job results into the SLO view. A figure supplies only where each
// request is submitted — one booted System, or a cluster dispatcher.

const (
	defaultServeTrace = "poisson"
	defaultServeSeed  = 1
	serveThreads      = 2
)

// serveScales are the per-workload scales the open-loop drivers use
// (their jobs are "short programs"; Options.ScaleOverride still wins).
var serveScales = map[string]int{
	"compress":   1,
	"mpegaudio":  2,
	"mandelbrot": 1,
	// Kernel workloads (resolved through the workloads.ByName fallback)
	// serve at their smallest size: each job is one forRange launch.
	"matmul": 1,
	"nbody":  1,
	"kmeans": 1,
}

// DefaultServeTopology returns the three-kind machine every figure
// beyond the PS3 shape shares — the serve driver's machine, the default
// cluster shard, and a row of the topo, fastpath and kernels sweeps:
// a kind-imbalanced shape whose SPE pool round-robin jobs overload
// while two VPUs (and the lone PPE between job mains) idle.
func DefaultServeTopology() cell.Topology {
	return cell.Topology{
		{Kind: isa.PPE, Count: 1}, {Kind: isa.SPE, Count: 4}, {Kind: isa.VPU, Count: 2},
	}
}

// Script is one exact open-loop workload: job i of the round-robin mix
// arrives at arrivals[i] — regardless of whether the machine is keeping
// up — carrying a completion deadline. (Trace, Seed, NumJobs, Cadence)
// name the arrival script forever, so a figure replays byte for byte.
type Script struct {
	NumJobs int `json:"jobs"`
	// Cadence is the mean inter-arrival gap in cycles (the rate knob:
	// arrival rate = ClockHz/Cadence jobs per simulated second).
	Cadence uint64 `json:"cadence_cycles"`
	Trace   string `json:"trace"`
	Seed    uint64 `json:"seed"`
	// Deadline is the per-job completion deadline (cycles, relative to
	// admission).
	Deadline cell.Clock `json:"deadline_cycles"`

	entries  []workloads.MixEntry
	arrivals []cell.Clock
}

// newScript resolves the arrival script once from the options; d holds
// the figure's defaults for the fields the options leave zero.
func newScript(opt Options, d Script) (*Script, error) {
	s := &Script{
		NumJobs:  cmp.Or(max(opt.ServeJobs, 0), d.NumJobs),
		Cadence:  cmp.Or(opt.ServeCadence, d.Cadence),
		Trace:    cmp.Or(opt.ServeTrace, d.Trace),
		Seed:     cmp.Or(opt.ServeSeed, defaultServeSeed),
		Deadline: cmp.Or(opt.ServeDeadline, d.Deadline),
	}
	var err error
	if s.arrivals, err = Arrivals(s.Trace, s.Seed, s.NumJobs, s.Cadence); err != nil {
		return nil, err
	}
	specs := workloads.All()
	if len(opt.ServeWorkloads) > 0 {
		specs = specs[:0:0]
		for _, name := range opt.ServeWorkloads {
			spec, err := workloads.ByName(name)
			if err != nil {
				return nil, err
			}
			specs = append(specs, spec)
		}
	}
	s.entries = make([]workloads.MixEntry, s.NumJobs)
	for i := range s.entries {
		spec := specs[i%len(specs)]
		s.entries[i] = workloads.MixEntry{Spec: spec, Threads: serveThreads,
			Scale: opt.scale(spec.Name, serveScales[spec.Name])}
	}
	return s, nil
}

// build constructs the one program holding every job's classes.
func (s *Script) build() (*classfile.Program, error) { return workloads.BuildMix(s.entries) }

// play submits every job of the script in arrival order.
func (s *Script) play(submit func(vm.JobSpec) error) error {
	for i, e := range s.entries {
		err := submit(vm.JobSpec{
			Class:    e.MainClassOf(i),
			Method:   "main",
			Name:     fmt.Sprintf("%s#%d", e.Spec.Name, i),
			Arrival:  s.arrivals[i],
			Deadline: s.Deadline,
		})
		if err != nil {
			return fmt.Errorf("job %d: %w", i, err)
		}
	}
	return nil
}

// valid reports job i's result matched its Go reference (vacuously
// true for a shed job, which never ran).
func (s *Script) valid(i int, res *vm.Result) bool {
	e := s.entries[i]
	return res.Shed || int32(uint32(res.Value)) == e.Spec.Reference(e.Threads, e.Scale)
}

// openLoopConfig is the VM configuration of one open-loop machine: the
// serve figure's System or one cluster shard.
func openLoopConfig(topo cell.Topology) vm.Config {
	cfg := vm.DefaultConfig()
	cfg.Machine.Topology = topo
	return cfg
}

// SLO is the service-level view of one pass over a script.
type SLO struct {
	// Completed/Shed/Met split the script: jobs that ran, jobs refused
	// at admission, and completed jobs that met their deadline.
	Completed int `json:"completed"`
	Shed      int `json:"shed"`
	Met       int `json:"met"`
	// Goodput is deadline-met jobs per simulated second — the number
	// the admission pipeline exists to maximise.
	Goodput float64 `json:"goodput_per_sec"`
	// P50/P95/P99 are nearest-rank admission→completion latency
	// percentiles over the jobs that ran (shed jobs excluded — their
	// latency is not a number; Shed counts them instead).
	P50 cell.Clock `json:"p50_cycles"`
	P95 cell.Clock `json:"p95_cycles"`
	P99 cell.Clock `json:"p99_cycles"`
	// AllValid reports every completed job's checksum matched its
	// reference.
	AllValid bool `json:"all_valid"`
}

// foldSLO reduces one pass's per-job results to its SLO view and its
// makespan (the simulated cycle the last job completed); valid[i] is
// results[i]'s checksum verdict and hz the machine clock rate.
func foldSLO(results []*vm.Result, valid []bool, hz float64) (SLO, cell.Clock) {
	slo := SLO{AllValid: true}
	var makespan cell.Clock
	var latencies []cell.Clock
	for i, res := range results {
		if res.Shed {
			slo.Shed++
			continue
		}
		slo.Completed++
		slo.AllValid = slo.AllValid && valid[i]
		latencies = append(latencies, res.Cycles)
		if res.DeadlineMet {
			slo.Met++
		}
		makespan = max(makespan, res.CompletedAt)
	}
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	slo.P50 = percentile(latencies, 50)
	slo.P95 = percentile(latencies, 95)
	slo.P99 = percentile(latencies, 99)
	if makespan > 0 {
		slo.Goodput = float64(slo.Met) / (float64(makespan) / hz)
	}
	return slo, makespan
}

// percentile is the nearest-rank percentile of sorted latencies.
func percentile(sorted []cell.Clock, p int) cell.Clock {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100 // ceil(p/100 * n)
	return sorted[max(rank, 1)-1]
}
