// Package experiments regenerates every figure of the paper's
// evaluation section (Figures 4(a), 4(b), 5, 6 and 7), the ablations
// README.md lists (A1-A4) and the reproduction's own sweeps. The paper's
// evaluation is one experiment repeated — the same programs, a different
// machine declaration per bar — and the package is built the same way:
// a closed-loop figure is a set of arms (machine declarations) handed to
// grid, which runs every bench on every arm through the one run
// primitive, plus a row derivation and a plain printer; the open-loop
// figures share one arrival script, request builder and SLO fold
// (openloop.go). Figures() is the registry herabench drives. Absolute
// cycle counts are simulator-calibrated; the claims under test are the
// relative shapes (see README.md).
package experiments

import (
	"cmp"
	"context"
	"fmt"
	"io"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
	"herajvm/internal/profile"
	"herajvm/internal/vm"
	"herajvm/internal/workloads"
)

// Options controls experiment scale.
type Options struct {
	// ScaleOverride overrides a workload's default scale when nonzero.
	ScaleOverride map[string]int
	// Topologies overrides the machine shapes the topo and kernels
	// sweeps visit, and its first entry the serve machine (nil keeps
	// each figure's defaults). herabench fills it from the -topology
	// flag.
	Topologies []cell.Topology
	// ServeJobs and ServeCadence size the open-loop serve driver
	// (RunServe): how many jobs the arrival trace emits and the mean
	// inter-arrival gap in cycles. 0 keeps the driver's defaults.
	ServeJobs    int
	ServeCadence uint64
	// ServeTrace names the arrival process (see Traces(); default
	// "poisson") and ServeSeed seeds its PRNG, together naming one
	// exact arrival script.
	ServeTrace string
	ServeSeed  uint64
	// ServeDeadline is the per-job completion deadline in cycles
	// relative to admission, and ServeMaxPending the admission
	// queue-depth backstop of shedding runs. 0 keeps the defaults.
	ServeDeadline   cell.Clock
	ServeMaxPending int
	// ServeWorkloads restricts the serve mix to the named workloads
	// (round-robin; nil = all three).
	ServeWorkloads []string
	// ShardTopos lists the cluster sweep's per-shard machine shapes
	// (the -shards flag; nil = four default serve-shaped shards).
	ShardTopos []cell.Topology
	// EpochStride overrides the cluster's epoch-barrier stride in
	// cycles (0 = cluster.DefaultEpochStride).
	EpochStride uint64
	// Handoff switches the cluster figure to its hand-off arm: an
	// imbalanced two-shard fleet (unless ShardTopos overrides it)
	// played with and without inter-shard job hand-off, plus an
	// in-process replay of the hand-off pass for the determinism gate.
	Handoff bool
	// Ctx, when non-nil, is the shared timeout guard every figure
	// runner honours: runners check it between runs (and the cluster
	// epoch engine at every barrier), so a wedged run fails with the
	// context's error instead of hanging CI. herabench wires -timeout
	// to it.
	Ctx context.Context
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
}

// Full returns the default experiment options (paper-shaped sizes).
func Full() Options {
	return Options{}
}

// Quick returns reduced sizes for unit tests and smoke runs.
func Quick() Options {
	return Options{
		ScaleOverride: map[string]int{
			"compress":   2,
			"mpegaudio":  4,
			"mandelbrot": 2,
		},
	}
}

// scale resolves a workload's scale: the override when set, else def.
func (o Options) scale(name string, def int) int {
	return cmp.Or(max(o.ScaleOverride[name], 0), def)
}

// topologies returns the -topology override, or a figure's defaults.
func (o Options) topologies(def ...cell.Topology) []cell.Topology {
	if len(o.Topologies) > 0 {
		return o.Topologies
	}
	return def
}

func (o Options) logf(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// interrupted reports the shared timeout guard's error once it fires;
// figure runners call it between runs so a timed-out sweep stops at
// the next run boundary.
func (o Options) interrupted() error {
	if o.Ctx != nil && o.Ctx.Err() != nil {
		return fmt.Errorf("experiments: %w", o.Ctx.Err())
	}
	return nil
}

// RunStats captures one benchmark execution.
type RunStats struct {
	Workload string
	// Topology is the machine shape the run used, e.g. "ppe:1,spe:6".
	Topology string
	// Cycles is the completion time (largest core clock at the end).
	Cycles cell.Clock
	// Checksum and Valid report output correctness vs the Go reference.
	Checksum int32
	Valid    bool
	// All sums every core's counters: StealsIn is the run's same-kind
	// work steals, MigrationsIn its cross-kind migrations landing on any
	// core — policy-driven moves plus the cost-gated moves the scheduler
	// itself performs. Accel sums the local-store cores
	// only (the SPEs on the PS3 shape, plus any VPUs the topology
	// declares) — the paper's per-SPE cycle shares and cache hit rates.
	All, Accel profile.CoreStats
	// DataCache and CodeCache are the first local-store core's final
	// cache sizes in bytes (where the adaptive controller settled).
	DataCache, CodeCache uint32
	// Job is the run's job-level accounting (kernel launches, workers
	// and staging DMA included): every run goes through the job API.
	// KernelPool is the set of kinds its last kernel launch ran on, and
	// Staged the set of kinds whose cores staged data tiles.
	Job        vm.JobStats
	KernelPool isa.KindSet
	Staged     isa.KindSet
}

// bench is one guest program a figure runs: how to build it for a
// thread count, its static entry class, and the checksum main must
// return.
type bench struct {
	name, entry string
	build       func(threads int) (*classfile.Program, error)
	want        func(threads int) int32
}

// benches returns the paper's three workloads at the options' scales.
func (o Options) benches() []bench {
	var out []bench
	for _, spec := range workloads.All() {
		out = append(out, paperBench(spec, o.scale(spec.Name, spec.DefaultScale)))
	}
	return out
}

func paperBench(spec workloads.Spec, scale int) bench {
	return bench{
		name: spec.Name, entry: spec.MainClass,
		build: func(threads int) (*classfile.Program, error) { return spec.Build(threads, scale) },
		want:  func(threads int) int32 { return spec.Reference(threads, scale) },
	}
}

// arm is one machine declaration a bench runs on — one bar of a figure.
// A bench's source and scale are fixed across a figure's arms; its
// thread count is the arm's (threads).
type arm struct {
	// label names the arm in -v progress lines.
	label string
	// cfg is the VM configuration the arm boots.
	cfg vm.Config
	// threads is the benchmark worker count (0 = one per worker core).
	threads int
}

// on is the default VM on topo.
func on(label string, topo cell.Topology, threads int) arm {
	cfg := vm.DefaultConfig()
	cfg.Machine.Topology = topo
	return arm{label: label, cfg: cfg, threads: threads}
}

// ps3 is the paper's machine: one PPE beside n SPEs (0 = PPE only).
func ps3(n, threads int) arm {
	return on(fmt.Sprintf("%d SPEs", n), cell.PS3Topology(n), threads)
}

// run executes one bench on one arm: build, boot, submit main as a job,
// drain, collect. It is the only place a closed-loop figure boots a VM.
func run(opt Options, b bench, a arm) (RunStats, error) {
	if err := opt.interrupted(); err != nil {
		return RunStats{}, err
	}
	threads := a.threads
	if threads == 0 {
		threads = a.cfg.Machine.Topology.DefaultWorkers()
	}
	prog, err := b.build(threads)
	if err != nil {
		return RunStats{}, err
	}
	machine, err := vm.New(a.cfg, prog)
	if err != nil {
		return RunStats{}, err
	}
	job, _, err := machine.Submit(vm.JobSpec{Name: "main", Class: b.entry, Method: "main"})
	if err == nil {
		_, err = job.Wait()
	}
	if err != nil {
		return RunStats{}, fmt.Errorf("%s (%s): %w", b.name, a.cfg.Machine.Topology, err)
	}
	st := collect(machine, job)
	st.Workload = b.name
	st.Valid = st.Checksum == b.want(threads)
	return st, nil
}

// collect reads one finished run's statistics off its machine and job.
func collect(machine *vm.VM, job *vm.Job) RunStats {
	st := RunStats{
		Topology: machine.Cfg.Machine.Topology.String(),
		Cycles:   machine.Machine.MaxClock(),
		Checksum: int32(uint32(job.Root().Result)),
		Job:      job.Stats,

		KernelPool: job.KernelPool(),
	}
	localStore := false
	for _, c := range machine.Machine.Cores() {
		st.All.Add(&c.Stats)
		if c.Stats.DataStaged > 0 {
			st.Staged = st.Staged.With(c.Kind)
		}
		if c.Kind.UsesLocalStore() {
			st.Accel.Add(&c.Stats)
			localStore = true
		}
	}
	if localStore {
		st.DataCache, st.CodeCache = machine.CacheSplit(0)
	}
	return st
}

// grid runs every bench on every arm — the one loop behind every
// closed-loop figure — and returns the runs indexed [bench][arm].
func grid(opt Options, fig string, benches []bench, arms []arm) ([][]RunStats, error) {
	out := make([][]RunStats, len(benches))
	for i, b := range benches {
		for _, a := range arms {
			st, err := run(opt, b, a)
			if err != nil {
				return nil, err
			}
			opt.logf("%s %s: %s on %s done (%d cycles, %d steals, %d migrations, valid %v)",
				fig, b.name, a.label, st.Topology, st.Cycles, st.All.StealsIn, st.All.MigrationsIn, st.Valid)
			out[i] = append(out[i], st)
		}
	}
	return out, nil
}

// allValid reports every run's checksum matched its reference.
func allValid(runs []RunStats) bool {
	for _, r := range runs {
		if !r.Valid {
			return false
		}
	}
	return true
}

// cyclesOf projects a bench's runs onto their completion times.
func cyclesOf(runs []RunStats) []uint64 {
	out := make([]uint64, len(runs))
	for i, r := range runs {
		out[i] = r.Cycles
	}
	return out
}

// relativeTo returns base/c per cycle count: performance relative to
// the baseline arm (>1 = faster than it).
func relativeTo(base uint64, cycles []uint64) []float64 {
	out := make([]float64, len(cycles))
	for i, c := range cycles {
		out[i] = float64(base) / float64(c)
	}
	return out
}
