// Benchmarks that regenerate every registered figure at reduced scale
// (`cmd/herabench` prints the tables; this is the `go test -bench` entry
// point per figure id) plus microbenchmarks of the simulator substrates.
package hera_test

import (
	"testing"

	hera "herajvm"
	"herajvm/internal/cache"
	"herajvm/internal/cell"
	"herajvm/internal/experiments"
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

// BenchmarkDataCacheHit measures the host cost of a software-cache hit.
func BenchmarkDataCacheHit(b *testing.B) {
	cfg := hera.DefaultConfig()
	machine, err := cell.NewMachine(cfg.Machine)
	if err != nil {
		b.Fatal(err)
	}
	dc := newBenchDataCache(machine)
	_, now := dc.ReadObject(0, 0x100000, 64, 16, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, now = dc.ReadObject(now, 0x100000, 64, 16, 8)
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
