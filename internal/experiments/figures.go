package experiments

import (
	"fmt"
	"strings"
)

// Result is what every figure returns: something that renders itself.
// Results with invariants also implement Check(Options) error — every
// row valid, identical or matching, plus the opt-in floor Options
// carries — which herabench runs after printing the table; the JSON
// artifact is json.Marshal of the result itself.
type Result interface{ Table() string }

// Checker is a Result with invariants to assert.
type Checker interface{ Check(Options) error }

// Figure is one registry entry: the -fig id, a one-line description and
// the runner.
type Figure struct {
	ID, Doc string
	Run     func(Options) (Result, error)
	// Gates lists the opt-in gates of the figure's Check.
	Gates []Gate
}

// Gate is one opt-in gate of a figure's Check: the herabench flag that
// switches it on and the name its "<name> gate: ok" line carries.
// herabench rejects a gate flag no selected figure lists.
type Gate struct{ Flag, Name string }

func figure[T Result](id, doc string, run func(Options) (T, error), gates ...Gate) Figure {
	return Figure{ID: id, Doc: doc, Gates: gates,
		Run: func(o Options) (Result, error) { return run(o) }}
}

// Figures returns the registry in presentation order: the paper's
// figures, the ablations (A1-A4), then the reproduction's own sweeps.
func Figures() []Figure {
	return []Figure{
		figure("4a", "Figure 4(a): speedup vs the PPE on 1 and 6 SPEs", RunFig4a),
		figure("4b", "Figure 4(b): scaling over 1..6 SPEs", RunFig4b),
		figure("5", "Figure 5: SPE cycles per operation type", RunFig5),
		figure("6", "Figure 6: data-cache size sweep", RunFig6),
		figure("7", "Figure 7: code-cache size sweep", RunFig7),
		figure("a1", "A1: array block-transfer size", RunA1),
		figure("a2", "A2: PPE<->SPE migration amortisation", RunA2),
		figure("a3", "A3: data/code cache split, static and adaptive", RunA3),
		figure("a4", "A4: cost of the JMM coherence protocol", RunA4),
		figure("topo", "machine-topology sweep (-topology overrides the shapes)", RunTopologySweep),
		figure("sched", "scheduler ablation: calendar vs steal vs migrate", RunSchedSweep),
		figure("serve", "open-loop serving: trace-driven jobs, shedding off vs on", RunServe),
		figure("fastpath", "superblock fast path vs stepping: identical results, coverage", RunFastPath),
		figure("cluster", "sharded serving: serial vs parallel advancement, hand-off arm", RunCluster,
			Gate{"handoff", "cluster hand-off"}),
		figure("kernels", "data-parallel offload: scalar vs Parallel.forRange", RunKernels,
			Gate{"minspeedup", "kernel offload"}),
	}
}

// gateError folds a Check's findings into one error (nil when clean).
func gateError(gate string, problems []string) error {
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("%s gate:\n  %s", gate, strings.Join(problems, "\n  "))
}

// checkValid is the Check of a figure whose only invariant is that
// every row's checksums matched their references.
func checkValid[R any](gate string, rows []R, row func(R) (string, bool)) error {
	var problems []string
	for _, r := range rows {
		if name, valid := row(r); !valid {
			problems = append(problems, name+": checksum mismatch vs reference")
		}
	}
	return gateError(gate, problems)
}

// heads renders one column header per x.
func heads[T any](format string, xs []T) string {
	var b strings.Builder
	for _, x := range xs {
		fmt.Fprintf(&b, format, x)
	}
	return b.String()
}

// writeSeries prints the "benchmark + N numeric columns" table shape
// Figures 4(b), 5, 6, 7, A1, A3 and the topology sweep share: a header
// line, then per row its name, one cell per value and its pre-rendered
// trailing columns (validity, usually).
func writeSeries[R any](b *strings.Builder, head, cell string, rows []R,
	row func(R) (name string, vals []float64, tail string)) {

	fmt.Fprintf(b, "%-12s%s\n", "benchmark", head)
	for _, r := range rows {
		name, vals, tail := row(r)
		fmt.Fprintf(b, "%-12s", name)
		for _, v := range vals {
			fmt.Fprintf(b, cell, v)
		}
		fmt.Fprintf(b, "%s\n", tail)
	}
}

// validCol renders the trailing validity column.
func validCol(v bool) string { return fmt.Sprintf(" %7v", v) }

const validHead = "   valid"
