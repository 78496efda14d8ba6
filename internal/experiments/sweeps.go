package experiments

import (
	"fmt"
	"strings"

	"herajvm/internal/cell"
	"herajvm/internal/isa"
)

// TopologySweep generalizes the Figure-4 machine sweep beyond the PS3
// shape: the same workloads run on a set of declarative topologies —
// PPE-only hosts, the classic 1+6, multi-PPE symmetric machines and
// SPE-heavy accelerators — and report completion time relative to the
// single-PPE baseline. This is the "abstracting processor heterogeneity"
// claim exercised end-to-end: the programs are identical across rows;
// only the machine declaration changes.
type TopologySweep struct {
	Topologies []cell.Topology
	Rows       []TopologySweepRow
}

// TopologySweepRow is one benchmark's series across the topologies.
type TopologySweepRow struct {
	Workload string
	Cycles   []uint64
	Speedup  []float64 // cycles(first topology) / cycles(topology)
	Valid    bool
}

// RunTopologySweep executes the 3 workloads x topologies matrix. Thread
// count follows the machine: one worker per core that can host workload
// threads under the annotation policy (SPEs when present, PPEs
// otherwise), so SPE-heavy shapes actually exercise their extra cores.
func RunTopologySweep(opt Options) (*TopologySweep, error) {
	// The default shapes: a PPE-only host, the PS3 default, a dual-PPE
	// host, an asymmetric 2 PPE + 2 SPE mix, an SPE-heavy 1+12
	// accelerator, and a three-kind machine that swaps two SPEs for
	// GPU-like VPUs.
	out := &TopologySweep{Topologies: opt.topologies(
		cell.PS3Topology(0),
		cell.PS3Topology(6),
		cell.Topology{{Kind: isa.PPE, Count: 2}},
		cell.Topology{{Kind: isa.PPE, Count: 2}, {Kind: isa.SPE, Count: 2}},
		cell.PS3Topology(12),
		DefaultServeTopology(),
	)}
	var arms []arm
	for _, topo := range out.Topologies {
		arms = append(arms, arm{label: "default workers", topo: topo})
	}
	runs, err := grid(opt, "topo", opt.benches(), arms)
	if err != nil {
		return nil, err
	}
	for _, r := range runs {
		cycles := cyclesOf(r)
		out.Rows = append(out.Rows, TopologySweepRow{Workload: r[0].Workload, Cycles: cycles,
			Speedup: relativeTo(cycles[0], cycles), Valid: allValid(r)})
	}
	return out, nil
}

// Table renders the sweep as text.
func (t *TopologySweep) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Topology sweep: speedup relative to a single PPE\n")
	writeSeries(&b, heads(" %14s", t.Topologies)+validHead, " %13.2fx", t.Rows,
		func(r TopologySweepRow) (string, []float64, string) { return r.Workload, r.Speedup, validCol(r.Valid) })
	return b.String()
}

// Check demands every run's checksum matched its reference.
func (t *TopologySweep) Check(Options) error {
	return checkValid("topo", t.Rows, func(r TopologySweepRow) (string, bool) { return r.Workload, r.Valid })
}

// SchedSweep is the scheduler ablation: every workload on every
// topology under the default calendar, the calendar plus same-kind work
// stealing, and stealing plus cost-gated cross-kind migration. Checksums
// must agree across all three (a scheduler is a performance policy,
// never a semantics change); the interesting columns are how much
// run-time stealing repairs the imbalance placement-time balancing
// leaves behind, and whether letting idle cores of one kind take
// over-queued work of another kind, when the cost model predicts a win,
// buys anything beyond that.
type SchedSweep struct {
	Rows []SchedSweepRow
}

// SchedArm is one scheduler's run of a (workload, topology) pair: its
// completion time, its same-kind steals, and its machine-wide cross-kind
// migrations (policy-driven moves plus, under "migrate", the cost-gated
// moves the scheduler itself decided — compare the steal arm's count to
// separate them).
type SchedArm struct {
	Cycles, Steals, Migrations uint64
}

// SchedSweepRow is one (workload, topology) pair's comparison.
type SchedSweepRow struct {
	Workload string
	Topology string
	Calendar SchedArm
	Steal    SchedArm
	Migrate  SchedArm
	// StealSpeedup is Calendar/Steal cycles (>1 means stealing helped);
	// MigrateSpeedup is Steal/Migrate cycles (>1 means cross-kind
	// migration beat stealing alone, =1 means the cost gate found
	// nothing worth moving).
	StealSpeedup   float64
	MigrateSpeedup float64
	// Match reports all three runs were checksum-valid and agreed.
	Match bool
}

// schedulers are the sweep's arms, weakest first.
var schedulers = []string{"calendar", "steal", "migrate"}

// RunSchedSweep executes the workloads x topologies x schedulers
// matrix. Options.Topologies overrides the shapes; Options.Scheduler is
// ignored (all three schedulers run by construction).
func RunSchedSweep(opt Options) (*SchedSweep, error) {
	// The default shapes: the PS3 default, a balanced-looking but
	// kind-imbalanced 2/2/2 mix where SPE-pinned work overloads one pool
	// while two other kinds idle, and the SPE-heavy three-kind machine
	// (two pools of same-kind siblings to steal within).
	topos := opt.topologies(
		cell.PS3Topology(6),
		cell.Topology{{Kind: isa.PPE, Count: 2}, {Kind: isa.SPE, Count: 2}, {Kind: isa.VPU, Count: 2}},
		DefaultServeTopology(),
	)
	var arms []arm
	for _, topo := range topos {
		for _, name := range schedulers {
			arms = append(arms, arm{label: name, topo: topo, sched: name})
		}
	}
	runs, err := grid(opt, "sched", opt.benches(), arms)
	if err != nil {
		return nil, err
	}
	out := &SchedSweep{}
	armOf := func(s RunStats) SchedArm { return SchedArm{s.Cycles, s.All.StealsIn, s.All.MigrationsIn} }
	for _, r := range runs {
		for i := 0; i < len(r); i += len(schedulers) {
			cal, st, mig := r[i], r[i+1], r[i+2]
			out.Rows = append(out.Rows, SchedSweepRow{
				Workload: cal.Workload, Topology: cal.Topology,
				Calendar: armOf(cal), Steal: armOf(st), Migrate: armOf(mig),
				StealSpeedup:   float64(cal.Cycles) / float64(st.Cycles),
				MigrateSpeedup: float64(st.Cycles) / float64(mig.Cycles),
				Match:          allValid(r[i:i+3]) && cal.Checksum == st.Checksum && st.Checksum == mig.Checksum,
			})
		}
	}
	return out, nil
}

// Table renders the sweep as text: cycles per scheduler, the two
// speedups, then each arm's steals (steal, migrate) and migrations
// (calendar, steal, migrate).
func (s *SchedSweep) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scheduler ablation: calendar vs same-kind stealing vs cost-gated cross-kind migration\n")
	fmt.Fprintf(&b, "%-12s %-18s %14s %14s %14s %8s %8s %9s %11s %6s\n", "benchmark", "topology",
		"calendar cyc", "steal cyc", "migrate cyc", "steal x", "migr x", "steals", "migrations", "match")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%-12s %-18s %14d %14d %14d %7.3fx %7.3fx %9s %11s %6v\n",
			r.Workload, r.Topology, r.Calendar.Cycles, r.Steal.Cycles, r.Migrate.Cycles,
			r.StealSpeedup, r.MigrateSpeedup,
			fmt.Sprintf("%d/%d", r.Steal.Steals, r.Migrate.Steals),
			fmt.Sprintf("%d/%d/%d", r.Calendar.Migrations, r.Steal.Migrations, r.Migrate.Migrations),
			r.Match)
	}
	return b.String()
}

// Check demands every row's three runs matched, and that the bare
// calendar never stole.
func (s *SchedSweep) Check(Options) error {
	var problems []string
	for _, r := range s.Rows {
		if !r.Match {
			problems = append(problems, fmt.Sprintf("%s on %s: schedulers disagreed on the checksum", r.Workload, r.Topology))
		}
		if r.Calendar.Steals != 0 {
			problems = append(problems, fmt.Sprintf("%s on %s: the calendar scheduler stole %d times",
				r.Workload, r.Topology, r.Calendar.Steals))
		}
	}
	return gateError("sched", problems)
}
