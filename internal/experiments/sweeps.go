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
// claim exercised end-to-end: the workload source and scale are fixed
// across the columns, but each column builds it with one worker thread
// per core that hosts workers (Topology.DefaultWorkers), so the thread
// count follows the machine. The sweep therefore cannot show one fixed
// program slowing down on a larger machine.
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
		arms = append(arms, on("default workers", topo, 0))
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
