package experiments

import (
	"fmt"
	"strings"

	"herajvm/internal/isa"
	"herajvm/internal/vm"
)

// Fig4a reproduces Figure 4(a): per-workload speedup relative to the PPE
// when running on one SPE and on six SPEs. The paper reports roughly
// 0.4x/2.5x for compress, 1.0x/4.6x for mpegaudio and 1.6x/9.4x for
// mandelbrot.
type Fig4a struct {
	Rows []Fig4aRow
}

// Fig4aRow is one benchmark's bar pair.
type Fig4aRow struct {
	Workload  string
	PPECycles uint64
	OneSPE    float64 // speedup vs PPE on 1 SPE
	SixSPE    float64 // speedup vs PPE on MaxSPEs SPEs
	Valid     bool
}

// RunFig4a executes the 3 workloads x {PPE, 1 SPE, 6 SPE} matrix.
func RunFig4a(opt Options) (*Fig4a, error) {
	// One benchmark thread per core context, as SPECjvm2008 does: a
	// single thread on the (single-core) PPE and on one SPE, MaxSPEs
	// threads across MaxSPEs SPEs. Total work is thread-independent.
	runs, err := grid(opt, "fig4a", opt.benches(), []arm{
		ps3(0, 1), ps3(1, 1), ps3(opt.MaxSPEs, min(opt.Threads, opt.MaxSPEs))})
	if err != nil {
		return nil, err
	}
	out := &Fig4a{}
	for _, r := range runs {
		rel := relativeTo(r[0].Cycles, cyclesOf(r))
		out.Rows = append(out.Rows, Fig4aRow{Workload: r[0].Workload, PPECycles: r[0].Cycles,
			OneSPE: rel[1], SixSPE: rel[2], Valid: allValid(r)})
	}
	return out, nil
}

// Table renders the figure as text.
func (f *Fig4a) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4(a): speedup relative to PPE\n")
	fmt.Fprintf(&b, "%-12s %12s %10s %10s %7s\n", "benchmark", "PPE cycles", "1 SPE", "6 SPEs", "valid")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-12s %12d %9.2fx %9.2fx %7v\n",
			r.Workload, r.PPECycles, r.OneSPE, r.SixSPE, r.Valid)
	}
	return b.String()
}

// Check demands every run's checksum matched its reference.
func (f *Fig4a) Check(Options) error {
	return checkValid("figure 4(a)", f.Rows, func(r Fig4aRow) (string, bool) { return r.Workload, r.Valid })
}

// Fig4b reproduces Figure 4(b): speedup on 1..6 SPEs relative to a
// single SPE. The paper shows mandelbrot scaling near-linearly and
// compress flattening from memory/bus contention.
type Fig4b struct {
	MaxSPEs int
	Rows    []Fig4bRow
}

// Fig4bRow is one benchmark's scaling series.
type Fig4bRow struct {
	Workload string
	Cycles   []uint64  // index i = i+1 SPEs
	Scaling  []float64 // Cycles[0]/Cycles[i]
	Valid    bool
}

// RunFig4b executes the 3 workloads x 1..MaxSPEs matrix.
func RunFig4b(opt Options) (*Fig4b, error) {
	var arms []arm
	for n := 1; n <= opt.MaxSPEs; n++ {
		arms = append(arms, ps3(n, min(opt.Threads, n)))
	}
	runs, err := grid(opt, "fig4b", opt.benches(), arms)
	if err != nil {
		return nil, err
	}
	out := &Fig4b{MaxSPEs: opt.MaxSPEs}
	for _, r := range runs {
		cycles := cyclesOf(r)
		out.Rows = append(out.Rows, Fig4bRow{Workload: r[0].Workload, Cycles: cycles,
			Scaling: relativeTo(cycles[0], cycles), Valid: allValid(r)})
	}
	return out, nil
}

// Table renders the figure as text.
func (f *Fig4b) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4(b): speedup relative to one SPE\n")
	ns := make([]int, f.MaxSPEs)
	for i := range ns {
		ns[i] = i + 1
	}
	writeSeries(&b, heads(" %6d", ns)+validHead, " %5.2fx", f.Rows,
		func(r Fig4bRow) (string, []float64, string) { return r.Workload, r.Scaling, validCol(r.Valid) })
	return b.String()
}

// Check demands every run's checksum matched its reference.
func (f *Fig4b) Check(Options) error {
	return checkValid("figure 4(b)", f.Rows, func(r Fig4bRow) (string, bool) { return r.Workload, r.Valid })
}

// Fig5 reproduces Figure 5: the proportion of SPE cycles spent in each
// operation type when the benchmark runs on SPE cores. The paper's
// qualitative findings: mandelbrot performs significantly more floating
// point than the others; compress spends more of its execution accessing
// main memory.
type Fig5 struct {
	Rows []Fig5Row
}

// Fig5Row is one benchmark's stacked bar.
type Fig5Row struct {
	Workload string
	Shares   [isa.NumClasses]float64
	Valid    bool
}

// RunFig5 profiles each workload on one SPE (cycle-class accounting is
// the simulator's native measurement, exactly as the authors "using a
// simulator ... calculated the proportion of processor cycles").
func RunFig5(opt Options) (*Fig5, error) {
	runs, err := grid(opt, "fig5", opt.benches(), []arm{ps3(1, 1)})
	if err != nil {
		return nil, err
	}
	out := &Fig5{}
	for _, r := range runs {
		out.Rows = append(out.Rows, Fig5Row{Workload: r[0].Workload, Shares: r[0].Accel.ClassShares(), Valid: r[0].Valid})
	}
	return out, nil
}

// Table renders the figure as text.
func (f *Fig5) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: proportion of SPE cycles per operation type\n")
	classes := make([]isa.OpClass, isa.NumClasses)
	for c := range classes {
		classes[c] = isa.OpClass(c)
	}
	writeSeries(&b, heads(" %14s", classes), " %13.1f%%", f.Rows, func(r Fig5Row) (string, []float64, string) {
		pct := make([]float64, len(r.Shares))
		for i, s := range r.Shares {
			pct[i] = 100 * s
		}
		return r.Workload, pct, ""
	})
	return b.String()
}

// Check demands every run's checksum matched its reference.
func (f *Fig5) Check(Options) error {
	return checkValid("figure 5", f.Rows, func(r Fig5Row) (string, bool) { return r.Workload, r.Valid })
}

// CacheSweep holds a Figure 6 or Figure 7 style sweep: per workload, the
// software-cache hit rate and the performance relative to the largest
// (default) size, as the data or code cache shrinks.
type CacheSweep struct {
	Figure  string
	Axis    string
	SizesKB []int
	Rows    []CacheSweepRow
}

// CacheSweepRow is one benchmark's pair of series.
type CacheSweepRow struct {
	Workload string
	HitRate  []float64
	RelPerf  []float64 // cycles(default size) / cycles(size)
	Valid    bool
}

// Fig6Sizes are the paper's data-cache x-axis points (KB). The paper
// sweeps down from the 104 KB default; 0 is unbuildable (every access
// would DMA) and is omitted as in our Figure 6 reading of the plot's
// leftmost usable points.
var Fig6Sizes = []int{8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104}

// Fig7Sizes are the paper's code-cache x-axis points (KB).
var Fig7Sizes = []int{8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88}

// RunFig6 sweeps the SPE software data-cache size on one SPE.
// Paper shape: compress has a consistently lower hit rate and degrades
// steeply; mpegaudio is relatively insensitive to data-cache size.
func RunFig6(opt Options) (*CacheSweep, error) {
	return runCacheSweep(opt, "Figure 6", "data cache KB", Fig6Sizes,
		func(cfg *vm.Config, kb int) { cfg.DataCache.Size = uint32(kb) << 10 },
		func(st RunStats) float64 { return st.Accel.DataHitRate() })
}

// RunFig7 sweeps the SPE software code-cache size on one SPE.
// Paper shape: mpegaudio is very susceptible to code-cache reduction;
// compress and mandelbrot barely react.
func RunFig7(opt Options) (*CacheSweep, error) {
	return runCacheSweep(opt, "Figure 7", "code cache KB", Fig7Sizes,
		func(cfg *vm.Config, kb int) { cfg.CodeCache.Size = uint32(kb) << 10 },
		func(st RunStats) float64 { return st.Accel.CodeHitRate() })
}

func runCacheSweep(opt Options, figure, axis string, sizes []int,
	set func(cfg *vm.Config, kb int), hit func(RunStats) float64) (*CacheSweep, error) {

	var arms []arm
	for _, kb := range sizes {
		a := ps3(1, 1)
		a.label = fmt.Sprintf("%d KB", kb)
		a.mutate = func(cfg *vm.Config) { set(cfg, kb) }
		arms = append(arms, a)
	}
	runs, err := grid(opt, figure, opt.benches(), arms)
	if err != nil {
		return nil, err
	}
	out := &CacheSweep{Figure: figure, Axis: axis, SizesKB: sizes}
	for _, r := range runs {
		cycles := cyclesOf(r)
		row := CacheSweepRow{Workload: r[0].Workload, Valid: allValid(r),
			RelPerf: relativeTo(cycles[len(cycles)-1], cycles)} // largest size = paper's baseline
		for _, st := range r {
			row.HitRate = append(row.HitRate, hit(st))
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Table renders the sweep as two text tables (hit rate, relative
// performance), mirroring the paper's paired plots.
func (s *CacheSweep) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: hit rate vs %s\n", s.Figure, s.Axis)
	writeSeries(&b, heads(" %6d", s.SizesKB), " %6.3f", s.Rows,
		func(r CacheSweepRow) (string, []float64, string) { return r.Workload, r.HitRate, "" })
	fmt.Fprintf(&b, "%s: performance relative to %d KB\n", s.Figure, s.SizesKB[len(s.SizesKB)-1])
	writeSeries(&b, heads(" %6d", s.SizesKB)+validHead, " %6.3f", s.Rows,
		func(r CacheSweepRow) (string, []float64, string) { return r.Workload, r.RelPerf, validCol(r.Valid) })
	return b.String()
}

// Check demands every run's checksum matched its reference.
func (s *CacheSweep) Check(Options) error {
	return checkValid(s.Figure, s.Rows, func(r CacheSweepRow) (string, bool) { return r.Workload, r.Valid })
}
