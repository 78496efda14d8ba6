package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"herajvm/internal/cell"
	"herajvm/internal/cluster"
	"herajvm/internal/isa"
	"herajvm/internal/vm"
)

// The cluster figure measures the sharding layer end to end: one
// open-loop arrival script (the serve driver's traces) played through
// a drain-routed dispatcher over N System shards, first with the
// shards advanced serially on one goroutine, then with each shard on
// its own goroutine under the epoch barrier — the same simulation
// twice, differing only in host parallelism. It reports the SLO view
// of the merged result stream (goodput, p50/p95/p99, shed count),
// per-shard routing and utilization, and an epoch-stride sensitivity
// table: barrier count and fidelity per stride. Fidelity means the
// merged job table is byte-identical — serial vs parallel, replay vs
// replay, stride vs stride. What the parallel pass saves on the host is
// the repository benchmark's cluster workload (wall_s against cpu_s).

// defaultHandoffStride is finer than DefaultEpochStride so the
// hand-off arm's rebalance decisions come often enough to matter.
const defaultHandoffStride = 500_000

// clusterDefaults are the figure's script defaults; handoffDefaults the
// hand-off arm's scenario, tuned empirically on the default imbalanced
// fleet: a bursty script whose spikes land jobs on the weak shard, and
// a deadline tight enough that those jobs slip there but roomy enough
// that the strong shard can still rescue them.
var (
	clusterDefaults = Script{NumJobs: 24, Cadence: 200_000, Trace: defaultServeTrace, Deadline: 100_000_000}
	handoffDefaults = Script{NumJobs: 16, Cadence: 100_000, Trace: "bursty", Deadline: 60_000_000}
)

// clusterStrides are the epoch strides the sensitivity table visits,
// ascending (the middle one is cluster.DefaultEpochStride).
var clusterStrides = []cell.Clock{500_000, cluster.DefaultEpochStride, 8_000_000}

// ClusterRun is one full pass of the arrival script over the fleet.
type ClusterRun struct {
	// Mode is "serial", "parallel" or "handoff"; Stride the epoch
	// stride used.
	Mode   string     `json:"mode"`
	Stride cell.Clock `json:"stride_cycles"`
	// Barriers counts epoch barriers the pass took.
	Barriers int `json:"barriers"`
	// Makespan is the simulated cycle the last job completed.
	Makespan cell.Clock `json:"makespan_cycles"`
	SLO
	// ShardJobs and ShardUtil are per-shard routing counts and core
	// utilization — the dispatcher's balance, made visible.
	ShardJobs []int     `json:"shard_jobs"`
	ShardUtil []float64 `json:"shard_util"`
	// Handoffs counts inter-shard job hand-offs the pass performed
	// (always 0 with hand-off disabled).
	Handoffs int `json:"handoffs"`
	// Identical reports the pass's merged job table was byte-identical
	// to the serial reference pass — the determinism contract, checked
	// on every pass.
	Identical bool `json:"identical"`

	jobsTable string
}

// ClusterSweep is the figure: the serial reference pass, the parallel
// pass and the stride table.
type ClusterSweep struct {
	Shards []string `json:"shards"`
	Script
	// Serial and Parallel are the two passes at the default stride.
	Serial   ClusterRun `json:"serial"`
	Parallel ClusterRun `json:"parallel"`
	// StrideRuns are parallel passes at the other strides (empty on
	// the hand-off arm: barrier placement decides freeze points there,
	// so stride invariance is deliberately not claimed).
	StrideRuns []ClusterRun `json:"stride_runs"`
	// HandoffArm marks the hand-off arm: HandoffOn is the parallel
	// pass with inter-shard hand-off enabled on the same fleet and
	// script as Serial/Parallel (which stay hand-off-free as the
	// baseline). Its Identical flag reports an in-process replay of
	// the pass reproduced the merged job table byte for byte.
	HandoffArm bool       `json:"handoff_arm,omitempty"`
	HandoffOn  ClusterRun `json:"handoff_on,omitempty"`
}

// DefaultHandoffShards returns the hand-off arm's imbalanced fleet: a
// weak PPE-only shard next to a strong 1-PPE + 6-SPE shard. The
// capacity-blind admission probe splits bursts roughly evenly between
// them, overloading the weak shard — the misrouting the hand-off pass
// exists to repair.
func DefaultHandoffShards() []cell.Topology {
	return []cell.Topology{
		{{Kind: isa.PPE, Count: 1}},
		{{Kind: isa.PPE, Count: 1}, {Kind: isa.SPE, Count: 6}},
	}
}

// RunCluster executes the cluster figure. Options: ShardTopos sets the
// fleet (default four serve shards), EpochStride the default stride,
// and the serve flags (jobs/cadence/trace/seed/deadline) the arrival
// script.
func RunCluster(opt Options) (*ClusterSweep, error) {
	// The default fleet: four serve-shaped shards (ppe:1,spe:4,vpu:2 each).
	topos := slices.Repeat([]cell.Topology{DefaultServeTopology()}, 4)
	defaults, stride := clusterDefaults, cluster.DefaultEpochStride
	if opt.Handoff {
		topos, defaults, stride = DefaultHandoffShards(), handoffDefaults, defaultHandoffStride
	}
	if len(opt.ShardTopos) > 0 {
		topos = opt.ShardTopos
	}
	stride = cmp.Or(opt.EpochStride, stride)
	script, err := newScript(opt, defaults)
	if err != nil {
		return nil, err
	}

	out := &ClusterSweep{Script: *script}
	for _, t := range topos {
		out.Shards = append(out.Shards, t.String())
	}
	play := func(mode string, s cell.Clock) (ClusterRun, error) {
		if err := opt.interrupted(); err != nil {
			return ClusterRun{}, err
		}
		run, err := playCluster(opt, topos, script, mode, s)
		if err != nil {
			return run, fmt.Errorf("cluster %s: %w", mode, err)
		}
		opt.logf("cluster %s stride %d: %d barriers, %d hand-offs, goodput=%.2f/s p99=%d",
			mode, s, run.Barriers, run.Handoffs, run.Goodput, run.P99)
		return run, nil
	}

	if out.Serial, err = play("serial", stride); err != nil {
		return nil, err
	}
	out.Serial.Identical = true // the reference pass
	if out.Parallel, err = play("parallel", stride); err != nil {
		return nil, err
	}
	out.Parallel.Identical = out.Parallel.jobsTable == out.Serial.jobsTable

	if opt.Handoff {
		// The hand-off arm: the same script with hand-off on, then an
		// in-process replay — the determinism half of the acceptance
		// gate. Its Identical flag means "replay reproduced the merged
		// job table", not "matches the hand-off-free serial pass" (a
		// different schedule by design). Stride runs are skipped:
		// barrier placement decides freeze points, so stride invariance
		// is not claimed for hand-off.
		out.HandoffArm = true
		if out.HandoffOn, err = play("handoff", stride); err != nil {
			return nil, err
		}
		replay, err := play("handoff", stride)
		if err != nil {
			return nil, err
		}
		out.HandoffOn.Identical = out.HandoffOn.jobsTable == replay.jobsTable
		return out, nil
	}

	for _, s := range clusterStrides {
		if s == stride {
			continue
		}
		run, err := play("parallel", s)
		if err != nil {
			return nil, err
		}
		// Fidelity: barrier placement must not perturb the simulation —
		// the merged job table is stride-invariant by contract.
		run.Identical = run.jobsTable == out.Serial.jobsTable
		out.StrideRuns = append(out.StrideRuns, run)
	}
	return out, nil
}

// playCluster boots one fleet and plays the arrival script through the
// dispatcher. mode "serial" advances the shards on one goroutine;
// "handoff" enables inter-shard hand-off.
func playCluster(opt Options, topos []cell.Topology, script *Script,
	mode string, stride cell.Clock) (ClusterRun, error) {

	shards := make([]cluster.ShardConfig, len(topos))
	for i, topo := range topos {
		shards[i] = cluster.ShardConfig{Cfg: openLoopConfig(topo), Build: script.build}
	}
	cl, err := cluster.Boot(cluster.Config{
		EpochStride: stride, Serial: mode == "serial", Shed: true, Handoff: mode == "handoff",
		Ctx: opt.Ctx}, shards)
	if err != nil {
		return ClusterRun{}, err
	}

	err = script.play(func(req vm.JobSpec) error {
		_, _, err := cl.Submit(req)
		return err
	})
	if err == nil {
		err = cl.Drain()
	}
	if err != nil {
		return ClusterRun{}, err
	}

	merged, err := cl.Results()
	if err != nil {
		return ClusterRun{}, err
	}
	results, valid := make([]*vm.Result, len(merged)), make([]bool, len(merged))
	for _, r := range merged {
		if r.Err != nil {
			return ClusterRun{}, fmt.Errorf("job %d trapped: %w", r.Seq, r.Err)
		}
		results[r.Seq], valid[r.Seq] = r.Res, script.valid(r.Seq, r.Res)
	}
	run := ClusterRun{Mode: mode, Stride: stride, Barriers: cl.Barriers()}
	run.SLO, run.Makespan = foldSLO(results, valid, shards[0].Cfg.Machine.EffectiveClockHz())
	for _, s := range cl.Shards() {
		run.ShardJobs = append(run.ShardJobs, s.Routed)
		run.ShardUtil = append(run.ShardUtil, s.Utilization())
		run.Handoffs += s.HandoffsOut
	}
	run.jobsTable, err = cl.JobsTable()
	return run, err
}

// Table renders the figure.
func (s *ClusterSweep) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cluster: %d shards [%s], %d jobs, %s trace (seed %d), gap %d, deadline %d\n",
		len(s.Shards), strings.Join(s.Shards, "; "), s.NumJobs, s.Trace, s.Seed, s.Cadence, s.Deadline)

	rows := append([]ClusterRun{s.Serial, s.Parallel}, s.StrideRuns...)
	if s.HandoffArm {
		rows = append(rows, s.HandoffOn)
	}
	fmt.Fprintf(&b, "%-9s %10s %8s %5s %4s %4s %10s %12s %12s %6s %9s\n", "mode", "stride", "barriers",
		"done", "shed", "met", "goodput/s", "p50", "p99", "valid", "identical")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %10d %8d %5d %4d %4d %10.2f %12d %12d %6v %9v\n",
			r.Mode, r.Stride, r.Barriers, r.Completed, r.Shed, r.Met,
			r.Goodput, r.P50, r.P99, r.AllValid, r.Identical)
	}

	fmt.Fprintf(&b, "per-shard routing (parallel run):\n")
	for i := range s.Shards {
		fmt.Fprintf(&b, "  shard %d %-24s jobs=%-3d util=%.3f\n",
			i, s.Shards[i], s.Parallel.ShardJobs[i], s.Parallel.ShardUtil[i])
	}

	if s.HandoffArm {
		// The hand-off record: same fleet, same script, hand-off off vs
		// on. "identical" on the hand-off row means an in-process replay
		// reproduced its merged job table byte for byte.
		h, p := s.HandoffOn, s.Parallel
		fmt.Fprintf(&b, "hand-off arm (off vs on, same fleet and script):\n")
		fmt.Fprintf(&b, "  hand-offs fired: %d\n", h.Handoffs)
		fmt.Fprintf(&b, "  deadlines met:   %d -> %d (of %d completed)\n", p.Met, h.Met, h.Completed)
		fmt.Fprintf(&b, "  p99 latency:     %d -> %d cycles\n", p.P99, h.P99)
		fmt.Fprintf(&b, "  goodput:         %.2f -> %.2f /s\n", p.Goodput, h.Goodput)
		fmt.Fprintf(&b, "  replay identical: %v, checksums valid: %v\n", h.Identical, h.AllValid)
		return b.String()
	}

	// The stride record: how the epoch-barrier default was chosen.
	fmt.Fprintf(&b, "epoch-stride sensitivity (fidelity = merged job table byte-identical to serial reference):\n")
	fmt.Fprintf(&b, "  %10s %8s %9s\n", "stride", "barriers", "identical")
	for _, r := range rows[1:] {
		fmt.Fprintf(&b, "  %10d %8d %9v\n", r.Stride, r.Barriers, r.Identical)
	}
	return b.String()
}

// Check is the figure's gate. Every pass's merged results must match
// their references and replay identically (against the serial
// reference; the hand-off pass against its own in-process replay). On
// the hand-off arm, hand-offs must actually fire and the hand-off run
// must strictly beat the hand-off-free parallel baseline on goodput
// (deadlines met) or tail latency (p99).
func (s *ClusterSweep) Check(Options) error {
	var problems []string
	passes := append([]ClusterRun{s.Serial, s.Parallel}, s.StrideRuns...)
	if s.HandoffArm {
		passes = append(passes, s.HandoffOn)
	}
	for _, r := range passes {
		if !r.Identical {
			problems = append(problems,
				fmt.Sprintf("%s pass (stride %d): merged results did not replay identically", r.Mode, r.Stride))
		}
		if !r.AllValid {
			problems = append(problems,
				fmt.Sprintf("%s pass (stride %d): checksum mismatch vs reference", r.Mode, r.Stride))
		}
	}
	if s.HandoffArm {
		h, p := s.HandoffOn, s.Parallel
		if h.Handoffs == 0 {
			problems = append(problems, "handoff pass: no hand-offs fired on the imbalanced fleet")
		}
		if h.Met <= p.Met && h.P99 >= p.P99 {
			problems = append(problems, fmt.Sprintf(
				"handoff pass: hand-off did not improve goodput or tail: met %d vs %d, p99 %d vs %d",
				h.Met, p.Met, h.P99, p.P99))
		}
	}
	return gateError("cluster", problems)
}
