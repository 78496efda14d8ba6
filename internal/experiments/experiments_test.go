package experiments

import (
	"testing"

	"herajvm/internal/isa"
	"herajvm/internal/vm"
	"herajvm/internal/workloads"
)

// tiny returns minimum-scale options so shape tests stay fast. The
// shape tests hold the paper's shapes at these sizes, which no golden
// runs; TestFigures holds herabench's own.
func tiny() Options {
	return Options{
		ScaleOverride: map[string]int{
			"compress":   1,
			"mpegaudio":  2,
			"mandelbrot": 2,
		},
	}
}

func TestFig4aShape(t *testing.T) {
	f, err := RunFig4a(tiny())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig4aRow{}
	for _, r := range f.Rows {
		if !r.Valid {
			t.Errorf("%s: checksum invalid", r.Workload)
		}
		byName[r.Workload] = r
	}
	cp, mp, mb := byName["compress"], byName["mpegaudio"], byName["mandelbrot"]

	// Paper shape, Figure 4(a): compress much slower on one SPE;
	// mpegaudio roughly equivalent; mandelbrot significantly faster.
	if cp.OneSPE >= 0.8 {
		t.Errorf("compress on 1 SPE should be much slower than PPE: %.2fx", cp.OneSPE)
	}
	if mp.OneSPE < 0.7 || mp.OneSPE > 1.35 {
		t.Errorf("mpegaudio on 1 SPE should be roughly PPE-equivalent: %.2fx", mp.OneSPE)
	}
	if mb.OneSPE <= 1.2 {
		t.Errorf("mandelbrot on 1 SPE should beat the PPE: %.2fx", mb.OneSPE)
	}
	// With six SPEs everything beats the PPE, in the paper's order:
	// mandelbrot > mpegaudio > compress.
	for _, r := range f.Rows {
		if r.SixSPE <= 1 {
			t.Errorf("%s on 6 SPEs should beat the PPE: %.2fx", r.Workload, r.SixSPE)
		}
	}
	if !(mb.SixSPE > mp.SixSPE && mp.SixSPE > cp.SixSPE) {
		t.Errorf("6-SPE ordering should be mandelbrot > mpegaudio > compress: %.2f %.2f %.2f",
			mb.SixSPE, mp.SixSPE, cp.SixSPE)
	}
}

func TestFig4bScalingMonotone(t *testing.T) {
	f, err := RunFig4b(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.Rows {
		if !r.Valid {
			t.Errorf("%s: checksum invalid", r.Workload)
		}
		for i := 1; i < len(r.Scaling); i++ {
			if r.Scaling[i] < r.Scaling[i-1]-0.05 {
				t.Errorf("%s: scaling regressed at %d SPEs: %v", r.Workload, i+1, r.Scaling)
			}
		}
		if last := r.Scaling[len(r.Scaling)-1]; last < 1.5 {
			t.Errorf("%s: no useful scaling by %d SPEs: %v", r.Workload, paperSPEs, r.Scaling)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	f, err := RunFig5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	shares := map[string][isa.NumClasses]float64{}
	for _, r := range f.Rows {
		shares[r.Workload] = r.Shares
		var sum float64
		for _, s := range r.Shares {
			sum += s
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s: shares sum to %.3f", r.Workload, sum)
		}
	}
	// Paper's Figure 5 findings: mandelbrot performs significantly more
	// floating point; compress spends more cycles on main memory.
	if !(shares["mandelbrot"][isa.ClassFloat] > shares["compress"][isa.ClassFloat] &&
		shares["mandelbrot"][isa.ClassFloat] > shares["mpegaudio"][isa.ClassFloat]) {
		t.Error("mandelbrot should have the largest floating-point share")
	}
	if !(shares["compress"][isa.ClassMainMem] > shares["mandelbrot"][isa.ClassMainMem] &&
		shares["compress"][isa.ClassMainMem] > shares["mpegaudio"][isa.ClassMainMem]) {
		t.Error("compress should have the largest main-memory share")
	}
}

func TestFig6Shape(t *testing.T) {
	opt := tiny()
	sweep, err := runCacheSweep(opt, "Figure 6", "data cache KB", []int{8, 48, 104},
		func(cfg *vm.Config, kb int) { cfg.DataCache.Size = uint32(kb) << 10 },
		func(st RunStats) float64 { return st.Accel.DataHitRate() })
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]CacheSweepRow{}
	for _, r := range sweep.Rows {
		rows[r.Workload] = r
		if !r.Valid {
			t.Errorf("%s invalid", r.Workload)
		}
	}
	cp := rows["compress"]
	// compress: consistently lower hit rate and steep degradation.
	if cp.HitRate[0] >= cp.HitRate[2] {
		t.Errorf("compress hit rate should fall as the cache shrinks: %v", cp.HitRate)
	}
	if cp.RelPerf[0] > 0.85 {
		t.Errorf("compress should degrade badly at 8 KB: %.3f", cp.RelPerf[0])
	}
	// mpegaudio: relatively insensitive to data-cache size.
	if rows["mpegaudio"].RelPerf[0] < 0.9 {
		t.Errorf("mpegaudio should be insensitive to data-cache size: %v", rows["mpegaudio"].RelPerf)
	}
	for _, r := range sweep.Rows {
		if r.Workload == "compress" {
			continue
		}
		if cp.HitRate[2] >= r.HitRate[2] {
			t.Errorf("compress should have the lowest default hit rate (vs %s)", r.Workload)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	opt := tiny()
	sweep, err := runCacheSweep(opt, "Figure 7", "code cache KB", []int{8, 48, 88},
		func(cfg *vm.Config, kb int) { cfg.CodeCache.Size = uint32(kb) << 10 },
		func(st RunStats) float64 { return st.Accel.CodeHitRate() })
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]CacheSweepRow{}
	for _, r := range sweep.Rows {
		rows[r.Workload] = r
	}
	// mpegaudio: very susceptible to code-cache reduction.
	if rows["mpegaudio"].RelPerf[0] > 0.6 {
		t.Errorf("mpegaudio should collapse at 8 KB code cache: %v", rows["mpegaudio"].RelPerf)
	}
	// compress and mandelbrot: essentially insensitive.
	for _, name := range []string{"compress", "mandelbrot"} {
		if rows[name].RelPerf[0] < 0.95 {
			t.Errorf("%s should be insensitive to code-cache size: %v", name, rows[name].RelPerf)
		}
	}
}

func TestA2MigrationBreakEven(t *testing.T) {
	a, err := RunA2(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny methods must lose to staying on the PPE; large ones must win.
	if a.CyclesPerOp[0] <= a.LocalCycles[0] {
		t.Errorf("1-unit migrating call should lose: mig=%.0f local=%.0f",
			a.CyclesPerOp[0], a.LocalCycles[0])
	}
	last := len(a.WorkUnits) - 1
	if a.CyclesPerOp[last] >= a.LocalCycles[last] {
		t.Errorf("8192-unit migrating call should win: mig=%.0f local=%.0f",
			a.CyclesPerOp[last], a.LocalCycles[last])
	}
	if a.BreakEvenOps <= 0 {
		t.Error("no break-even point found")
	}
}

func TestA4CoherenceCost(t *testing.T) {
	opt := tiny()
	a, err := RunA4(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range a.Rows {
		// Coherence can only cost cycles, never save them.
		if float64(r.CoherentCyc) < float64(r.UnsoundCyc)*0.999 {
			t.Errorf("%s: coherence appears to be free or negative: %d vs %d",
				r.Workload, r.CoherentCyc, r.UnsoundCyc)
		}
	}
}

func TestRunStatsValidity(t *testing.T) {
	st, err := run(Options{}, paperBench(workloads.Mandelbrot(), 1), ps3(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Valid {
		t.Error("mandelbrot checksum should validate")
	}
	if st.Cycles == 0 || st.Accel.Instrs == 0 {
		t.Error("stats look empty")
	}
}
