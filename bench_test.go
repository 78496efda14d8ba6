// Benchmarks that regenerate every registered figure at reduced scale
// (`cmd/herabench` prints the tables; this is the `go test -bench` entry
// point per figure id) plus microbenchmarks of the simulator substrates.
package hera_test

import (
	"runtime"
	"testing"

	hera "herajvm"
	"herajvm/internal/cache"
	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/experiments"
	"herajvm/internal/isa"
	"herajvm/internal/jit"
	"herajvm/internal/mem"
	"herajvm/internal/vm"
	"herajvm/internal/workloads"
)

func benchOpts() experiments.Options {
	return experiments.Options{
		Threads: 6,
		MaxSPEs: 6,
		ScaleOverride: map[string]int{
			"compress":   1,
			"mpegaudio":  2,
			"mandelbrot": 2,
		},
	}
}

// BenchmarkFigures regenerates every registered figure — the paper's
// Figures 4-7, the A1-A4 ablations and the reproduction's own sweeps —
// as one sub-benchmark per herabench -fig id, and asserts the figure's
// own Check on the way, so a registry entry cannot silently rot.
func BenchmarkFigures(b *testing.B) {
	for _, f := range experiments.Figures() {
		b.Run(f.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := f.Run(benchOpts())
				if err != nil {
					b.Fatal(err)
				}
				if c, ok := res.(experiments.Checker); ok {
					if err := c.Check(benchOpts()); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- substrate microbenchmarks ---

// BenchmarkInterpreterThroughput measures simulated instructions per
// second of host time for the mandelbrot inner loop on one SPE.
func BenchmarkInterpreterThroughput(b *testing.B) {
	spec := workloads.Mandelbrot()
	prog, err := spec.Build(1, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		prog, _ = spec.Build(1, 2)
		cfg := vm.DefaultConfig()
		cfg.Machine.Topology = cell.PS3Topology(1)
		machine, err := vm.New(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := machine.RunMain(spec.MainClass, "main"); err != nil {
			b.Fatal(err)
		}
		instrs += machine.Machine.CoresOf(hera.SPE)[0].Stats.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim-instrs/s")
}

// BenchmarkDataCacheHit measures the host cost of a software-cache hit:
// in a cache holding one object (the lookup table at its initial size),
// and after 2 000 distinct objects have grown the table five times.
func BenchmarkDataCacheHit(b *testing.B) {
	for _, bc := range []struct {
		name    string
		objects int
	}{{"one-object", 1}, {"grown-index", 2000}} {
		b.Run(bc.name, func(b *testing.B) {
			machine, err := cell.NewMachine(hera.DefaultConfig().Machine)
			if err != nil {
				b.Fatal(err)
			}
			dc := newBenchDataCache(machine)
			var now cell.Clock
			for i := 0; i < bc.objects; i++ {
				_, now = dc.ReadObject(now, 0x100000+uint32(i)*48, 48, 16, 8)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, now = dc.ReadObject(now, 0x100000+uint32(i%bc.objects)*48, 48, 16, 8)
			}
		})
	}
}

func newBenchDataCache(m *cell.Machine) *cache.DataCache {
	return cache.NewDataCache(cache.DefaultDataCacheConfig(), m.CoresOf(hera.SPE)[0], 0)
}

// BenchmarkEIBTransfer measures the host cost of bus arbitration.
func BenchmarkEIBTransfer(b *testing.B) {
	e := cell.NewEIB(cell.DefaultEIBConfig())
	now := cell.Clock(0)
	for i := 0; i < b.N; i++ {
		now = e.Transfer(now, 1024)
	}
}

// BenchmarkMainMemory measures simulated memory accessor throughput:
// aligned accesses inside a host page, and the slow path of an access
// that straddles two pages (4 bytes before each 64 KB boundary).
func BenchmarkMainMemory(b *testing.B) {
	b.Run("aligned", func(b *testing.B) {
		m := mem.NewMain(1 << 20)
		for i := 0; i < b.N; i++ {
			m.Write64(uint32(i)&0xffff8, uint64(i))
			_ = m.Read64(uint32(i) & 0xffff8)
		}
	})
	b.Run("straddle", func(b *testing.B) {
		m := mem.NewMain(1 << 20)
		for i := 0; i < b.N; i++ {
			addr := (uint32(i)&7+1)<<16 - 4
			m.Write64(addr, uint64(i))
			_ = m.Read64(addr)
		}
	})
}

// BenchmarkBuildResolve measures the guest-program front end on twelve
// entries of the repository benchmark's serve mix: "build" assembles
// the program (workloads.BuildMix), "resolve" closes and verifies a
// freshly built one. With -benchmem, B/op over the ~26 000 instructions
// the program keeps is the figure TestBuildBytesPerInstruction budgets.
func BenchmarkBuildResolve(b *testing.B) {
	parts := []struct {
		name  string
		scale int
	}{{"compress", 1}, {"matmul", 1}, {"mpegaudio", 2}, {"nbody", 1}, {"mandelbrot", 1}, {"kmeans", 1}}
	entries := make([]workloads.MixEntry, 12)
	for i := range entries {
		spec, err := workloads.ByName(parts[i%len(parts)].name)
		if err != nil {
			b.Fatal(err)
		}
		entries[i] = workloads.MixEntry{Spec: spec, Threads: 2, Scale: parts[i%len(parts)].scale}
	}
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := workloads.BuildMix(entries); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("resolve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			prog, err := workloads.BuildMix(entries)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := prog.Resolve(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompile measures the JIT apart from the lowering it defers:
// "compile" is every method of the three paper programs through a fresh
// SPE compiler, no block probed; "lower" then probes every pending
// entry of those methods once — the most a run could ever ask for.
func BenchmarkCompile(b *testing.B) {
	var methods []*classfile.Method
	for _, spec := range workloads.All() {
		prog, err := spec.Build(1, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := prog.Resolve(); err != nil {
			b.Fatal(err)
		}
		for _, c := range prog.Classes() {
			for _, m := range c.Methods {
				if !m.IsNative() && !m.IsAbstract() && m.Code != nil {
					methods = append(methods, m)
				}
			}
		}
	}
	compileAll := func(b *testing.B) []*jit.CompiledMethod {
		c := jit.NewCompiler(isa.SPE, mem.NewMain(64<<20), mem.NewRegion("code", 4096, 32<<20))
		c.InternString = func(string) (uint32, error) { return 1 << 20, nil }
		cms := make([]*jit.CompiledMethod, len(methods))
		for i, m := range methods {
			cm, err := c.Compile(m)
			if err != nil {
				b.Fatal(err)
			}
			cms[i] = cm
		}
		return cms
	}
	b.Run("compile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			compileAll(b)
		}
	})
	b.Run("lower", func(b *testing.B) {
		b.ReportAllocs()
		blocks := 0
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cms := compileAll(b)
			b.StartTimer()
			for _, cm := range cms {
				for p := range cm.Code {
					if cm.Block(p) != nil {
						blocks++
					}
				}
			}
		}
		b.ReportMetric(float64(blocks)/float64(b.N), "blocks/op")
	})
}

// TestBootAllocBudget bounds what booting the default machine
// allocates on the host, by count rather than by timer. What remains is
// mostly the six 256 KB local stores (1.5 MB); the budget fails if a
// table sized for the worst case comes back (the data caches' indexes
// were 1.5 MB more).
func TestBootAllocBudget(t *testing.T) {
	prog, err := workloads.Mandelbrot().Build(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := hera.NewSystem(hera.DefaultConfig(), prog); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2500<<10 {
		t.Fatalf("NewSystem on the default topology allocates %d bytes, budget 2.5 MB", got)
	}
}

// BenchmarkBoot measures booting a Hera-JVM with the default
// configuration, the cost every figure cell and every shard pays before
// its first instruction. The program is rebuilt outside the timer: a
// boot resolves it in place.
func BenchmarkBoot(b *testing.B) {
	spec := workloads.Mandelbrot()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		prog, err := spec.Build(1, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := hera.NewSystem(hera.DefaultConfig(), prog); err != nil {
			b.Fatal(err)
		}
	}
}
