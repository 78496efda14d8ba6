package experiments

import (
	"fmt"
	"math"
	"sort"

	"herajvm/internal/cell"
)

// Arrival traces for the open-loop serve driver. A trace is a named,
// seeded generator of job arrival cycles: the driver submits job i at
// Arrivals(...)[i] regardless of how the machine is keeping up, which
// is what makes the driver open-loop — a closed loop that waits for
// completions before submitting would hide queueing delay from the SLO
// percentiles. Every generator draws from a splitmix64 PRNG seeded by
// the caller, so a (trace, seed, jobs, gap) tuple names one exact
// arrival script forever: double-replaying it is byte-identical, which
// the CI determinism gate enforces.

// prng is a splitmix64 generator — tiny, fast, and fully specified, so
// traces never depend on the Go runtime's rand internals.
type prng struct{ state uint64 }

func newPRNG(seed uint64) *prng { return &prng{state: seed} }

func (p *prng) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in (0, 1] — never 0, so it is safe
// inside a logarithm.
func (p *prng) float64() float64 {
	return (float64(p.next()>>11) + 1) / (1 << 53)
}

// traceGen yields the gap (in cycles) between job i-1 and job i, given
// the mean gap and the total job count.
type traceGen func(p *prng, meanGap float64, i, n int) float64

// traceGens is the arrival-trace registry. Every generator targets the
// same long-run mean gap; they differ in burstiness — the dimension
// that separates an admission pipeline from a rate limiter.
var traceGens = map[string]traceGen{
	// uniform: a fixed gap — the metronome baseline with no variance.
	"uniform": func(p *prng, meanGap float64, i, n int) float64 {
		return meanGap
	},
	// poisson: exponential inter-arrival gaps (a Poisson process), the
	// canonical open-loop arrival model.
	"poisson": func(p *prng, meanGap float64, i, n int) float64 {
		return -meanGap * math.Log(p.float64())
	},
	// bursty: back-to-back bursts of four jobs separated by long lulls;
	// the same mean rate as uniform, concentrated into spikes that
	// overrun any drain estimate briefly.
	"bursty": func(p *prng, meanGap float64, i, n int) float64 {
		if i%4 != 0 {
			return 0.1 * meanGap
		}
		return 3.7 * meanGap // burst leader: 3×0.1 + 3.7 averages to 1.0
	},
	// diurnal: a Poisson process whose rate swings sinusoidally over a
	// 16-job period — rush hour and dead of night in one trace.
	"diurnal": func(p *prng, meanGap float64, i, n int) float64 {
		rate := 1 + float64(0.75*math.Sin(2*math.Pi*float64(i)/16))
		return -meanGap / rate * math.Log(p.float64())
	},
}

// Traces returns the registered arrival-trace names, sorted.
func Traces() []string {
	names := make([]string, 0, len(traceGens))
	for name := range traceGens {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Arrivals generates the arrival cycles of n jobs under a named trace:
// the cumulative sum of the generator's gaps, starting at the first
// gap. The sequence is non-decreasing by construction and fully
// determined by (trace, seed, n, meanGap).
func Arrivals(trace string, seed uint64, n int, meanGap uint64) ([]cell.Clock, error) {
	gen, ok := traceGens[trace]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown trace %q (have %v)", trace, Traces())
	}
	p := newPRNG(seed)
	out := make([]cell.Clock, n)
	var at float64
	for i := 0; i < n; i++ {
		at += gen(p, float64(meanGap), i, n)
		out[i] = cell.Clock(at + 0.5)
	}
	return out, nil
}
