package experiments

import (
	"fmt"
	"strings"

	"herajvm/internal/classfile"
	"herajvm/internal/vm"
)

// A1 sweeps the array block-transfer size the paper fixes at 1 KB
// ("a block of up to 1KB of neighbouring elements is also transferred",
// §3.2.1), asking whether 1 KB was the right choice per workload.
type A1 struct {
	SizesB []int
	Rows   []A1Row
}

// A1Row is one workload's series: performance relative to the 1 KB
// default.
type A1Row struct {
	Workload string
	RelPerf  []float64
}

// A1Sizes are the block sizes swept (bytes); a1Default indexes the
// paper's 1 KB among them.
var A1Sizes = []int{128, 256, 512, 1024, 2048, 4096}

const a1Default = 3

// RunA1 executes the block-size sweep on one SPE.
func RunA1(opt Options) (*A1, error) {
	var arms []arm
	for _, bs := range A1Sizes {
		a := ps3(1, 1)
		a.label = fmt.Sprintf("block %d", bs)
		a.mutate = func(cfg *vm.Config) { cfg.DataCache.ArrayBlock = uint32(bs) }
		arms = append(arms, a)
	}
	runs, err := grid(opt, "a1", opt.benches(), arms)
	if err != nil {
		return nil, err
	}
	out := &A1{SizesB: A1Sizes}
	for _, r := range runs {
		out.Rows = append(out.Rows, A1Row{Workload: r[0].Workload,
			RelPerf: relativeTo(r[a1Default].Cycles, cyclesOf(r))})
	}
	return out, nil
}

// Table renders A1.
func (a *A1) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A1: performance vs array block size (relative to 1 KB)\n")
	writeSeries(&b, heads(" %6dB", a.SizesB), " %7.3f", a.Rows,
		func(r A1Row) (string, []float64, string) { return r.Workload, r.RelPerf, "" })
	return b.String()
}

// A2 measures migration cost: a thread repeatedly invokes an
// SPE-annotated method whose body does K units of work; as K grows the
// migration round trip amortises. The crossover tells how much work a
// method must do before migrating for it pays off — the granularity the
// paper's annotation scheme implicitly assumes.
type A2 struct {
	WorkUnits    []int
	CyclesPerOp  []float64 // migrating (annotated) version
	LocalCycles  []float64 // PPE-only version
	BreakEvenOps int       // first K where migrating wins
}

// A2Work are the per-call work sizes swept (inner loop iterations of
// double arithmetic).
var A2Work = []int{1, 8, 32, 128, 512, 2048, 8192}

// RunA2 builds the microbenchmark twice (annotated and not) per size
// and runs each on the default PS3 machine.
func RunA2(opt Options) (*A2, error) {
	const calls = 40
	var benches []bench
	for _, k := range A2Work {
		for _, annotate := range []bool{true, false} {
			benches = append(benches, bench{
				name: fmt.Sprintf("work %d (annotated %v)", k, annotate), entry: "MigBench",
				build: func(int) (*classfile.Program, error) { return migrationBench(k, calls, annotate), nil },
				want:  func(int) int32 { return 1 },
			})
		}
	}
	runs, err := grid(opt, "a2", benches, []arm{ps3(6, 1)})
	if err != nil {
		return nil, err
	}
	out := &A2{WorkUnits: A2Work, BreakEvenOps: -1}
	for i, k := range A2Work {
		mig, loc := runs[2*i][0].Cycles, runs[2*i+1][0].Cycles
		out.CyclesPerOp = append(out.CyclesPerOp, float64(mig)/calls)
		out.LocalCycles = append(out.LocalCycles, float64(loc)/calls)
		if out.BreakEvenOps < 0 && mig < loc {
			out.BreakEvenOps = k
		}
	}
	return out, nil
}

// migrationBench builds a program whose main makes `calls` invocations
// of a method doing k units of double arithmetic, annotated RunOnSPE
// when annotate is set.
func migrationBench(k, calls int, annotate bool) *classfile.Program {
	p := classfile.NewProgram()
	vm.Stdlib(p)
	c := p.NewClass("MigBench", nil)
	hot := c.NewMethod("hot", classfile.FlagStatic, classfile.Double, classfile.Double)
	if annotate {
		hot.Annotate(classfile.AnnRunOnSPE)
	}
	{
		a := hot.Asm()
		loop, done := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(2)
		a.Bind(loop)
		a.LoadI(2)
		a.ConstI(int32(k))
		a.IfICmpGE(done)
		a.LoadD(0)
		a.ConstD(1.0000001)
		a.MulD()
		a.ConstD(1e-12)
		a.AddD()
		a.StoreD(0)
		a.Inc(2, 1)
		a.Goto(loop)
		a.Bind(done)
		a.LoadD(0)
		a.Ret()
		a.MustBuild()
	}
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	loop, done := a.NewLabel(), a.NewLabel()
	a.ConstD(1)
	a.StoreD(0)
	a.ConstI(0)
	a.StoreI(2)
	a.Bind(loop)
	a.LoadI(2)
	a.ConstI(int32(calls))
	a.IfICmpGE(done)
	a.LoadD(0)
	a.InvokeStatic(hot)
	a.StoreD(0)
	a.Inc(2, 1)
	a.Goto(loop)
	a.Bind(done)
	a.ConstI(1)
	a.Ret()
	a.MustBuild()
	return p
}

// Table renders A2.
func (a *A2) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A2: PPE<->SPE migration amortisation (cycles per call)\n")
	fmt.Fprintf(&b, "%-12s", "work units")
	for _, k := range a.WorkUnits {
		fmt.Fprintf(&b, " %8d", k)
	}
	fmt.Fprintf(&b, "\n%-12s", "migrating")
	for _, c := range a.CyclesPerOp {
		fmt.Fprintf(&b, " %8.0f", c)
	}
	fmt.Fprintf(&b, "\n%-12s", "PPE-local")
	for _, c := range a.LocalCycles {
		fmt.Fprintf(&b, " %8.0f", c)
	}
	fmt.Fprintf(&b, "\nbreak-even at ~%d work units per call\n", a.BreakEvenOps)
	return b.String()
}

// A3 explores the adaptive data/code cache split the paper proposes as
// future work ("adaptive sizing of the code and data caches would likely
// benefit many applications", §4): with a fixed 192 KB local-store
// budget, which static split wins per workload — and does the runtime
// adaptive controller (vm.Config.AdaptiveCaches) find it on its own?
type A3 struct {
	Splits []string
	Rows   []A3Row
}

// A3Row is one workload's relative performance per split (vs the paper
// default 104/88), plus the adaptive controller's result starting from
// that default.
type A3Row struct {
	Workload string
	RelPerf  []float64
	Best     string
	// Adaptive is the controller's performance relative to the default
	// split; FinalSplit is where it settled.
	Adaptive   float64
	FinalSplit string
}

// a3Splits are (dataKB, codeKB) pairs summing to 192 KB; a3Default
// indexes the paper's 104/88 among them.
var a3Splits = [][2]int{{160, 32}, {136, 56}, {104, 88}, {72, 120}, {40, 152}}

const a3Default = 2

// RunA3 executes the split sweep on one SPE: one arm per static split,
// then the adaptive controller starting from the default split.
func RunA3(opt Options) (*A3, error) {
	out := &A3{}
	var arms []arm
	for _, sp := range a3Splits {
		a := ps3(1, 1)
		a.label = fmt.Sprintf("%d/%d", sp[0], sp[1])
		a.mutate = func(cfg *vm.Config) {
			cfg.DataCache.Size = uint32(sp[0]) << 10
			cfg.CodeCache.Size = uint32(sp[1]) << 10
		}
		out.Splits = append(out.Splits, a.label)
		arms = append(arms, a)
	}
	adaptive := arms[a3Default]
	adaptive.label = "adaptive"
	adaptive.mutate = func(cfg *vm.Config) {
		arms[a3Default].mutate(cfg)
		cfg.AdaptiveCaches = true
	}
	runs, err := grid(opt, "a3", opt.benches(), append(arms, adaptive))
	if err != nil {
		return nil, err
	}
	for _, r := range runs {
		static, ast := r[:len(a3Splits)], r[len(a3Splits)]
		baseline := static[a3Default].Cycles
		row := A3Row{Workload: ast.Workload, RelPerf: relativeTo(baseline, cyclesOf(static)),
			Adaptive:   float64(baseline) / float64(ast.Cycles),
			FinalSplit: fmt.Sprintf("%d/%d", ast.DataCache>>10, ast.CodeCache>>10)}
		best := 0
		for i, rel := range row.RelPerf {
			if rel > row.RelPerf[best] {
				best = i
			}
		}
		row.Best = out.Splits[best]
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Table renders A3.
func (a *A3) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A3: static data/code cache splits of a 192 KB local-store budget\n")
	fmt.Fprintf(&b, "(performance relative to the paper's 104/88 split)\n")
	writeSeries(&b, heads(" %8s", a.Splits)+fmt.Sprintf(" %9s %9s %11s", "best", "adaptive", "settled at"),
		" %8.3f", a.Rows, func(r A3Row) (string, []float64, string) {
			return r.Workload, r.RelPerf, fmt.Sprintf(" %9s %9.3f %11s", r.Best, r.Adaptive, r.FinalSplit)
		})
	return b.String()
}

// A4 measures what the paper's JMM coherence protocol (purge on
// lock/volatile-read, flush on unlock/volatile-write, §3.2.1) costs, by
// unsoundly disabling it. Checksum validity is reported: an invalid
// checksum demonstrates why CellVM-style relaxation "presents ...
// correctness issues" (§5).
type A4 struct {
	Rows []A4Row
}

// A4Row is one workload's pair.
type A4Row struct {
	Workload     string
	CoherentCyc  uint64
	UnsoundCyc   uint64
	Overhead     float64 // coherent/unsound - 1
	UnsoundValid bool
}

// RunA4 runs each workload on 6 SPEs with and without coherence.
func RunA4(opt Options) (*A4, error) {
	sound := ps3(opt.MaxSPEs, min(opt.Threads, opt.MaxSPEs))
	unsound := sound
	unsound.label += ", no coherence"
	unsound.mutate = func(cfg *vm.Config) { cfg.UnsafeNoCoherence = true }
	runs, err := grid(opt, "a4", opt.benches(), []arm{sound, unsound})
	if err != nil {
		return nil, err
	}
	out := &A4{}
	for _, r := range runs {
		out.Rows = append(out.Rows, A4Row{
			Workload:     r[0].Workload,
			CoherentCyc:  r[0].Cycles,
			UnsoundCyc:   r[1].Cycles,
			Overhead:     float64(r[0].Cycles)/float64(r[1].Cycles) - 1,
			UnsoundValid: r[1].Valid,
		})
	}
	return out, nil
}

// Table renders A4.
func (a *A4) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A4: cost of the JMM purge/flush coherence protocol (6 SPEs)\n")
	fmt.Fprintf(&b, "%-12s %14s %14s %10s %15s\n",
		"benchmark", "coherent cyc", "unsound cyc", "overhead", "unsound valid?")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-12s %14d %14d %9.2f%% %15v\n",
			r.Workload, r.CoherentCyc, r.UnsoundCyc, 100*r.Overhead, r.UnsoundValid)
	}
	return b.String()
}
