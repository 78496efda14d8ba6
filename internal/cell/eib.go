// Package cell models the Cell Broadband Engine hardware that Hera-JVM
// runs on: the PPE and SPE cores with their per-core cycle clocks, the
// SPEs' 256 KB local stores and Memory Flow Controllers (MFC), the
// Element Interconnect Bus (EIB) that carries DMA traffic, and the PPE's
// hardware cache hierarchy and branch predictor.
//
// The machine is simulated conservatively in discrete-event style: each
// core owns a local cycle clock, the VM always advances the core with the
// smallest clock, and shared resources (the EIB) arbitrate requests by
// timestamp, so multi-core interleavings and bus contention are
// deterministic.
package cell

import "fmt"

// Clock is a simulated time in cycles.
type Clock = uint64

// EIBConfig calibrates the Element Interconnect Bus.
type EIBConfig struct {
	// Channels is the number of concurrent transfers the bus sustains at
	// full per-channel bandwidth (the real EIB has four 16-byte rings).
	// Contention on these rings is what makes memory-bound workloads
	// stop scaling across six SPEs (Figure 4(b)).
	Channels int
	// BytesPerCycle is the per-channel payload bandwidth.
	BytesPerCycle float64
	// ArbCycles is the fixed arbitration latency added to each transfer.
	ArbCycles uint32
}

// DefaultEIBConfig returns the calibrated bus model: four rings of
// 16 bytes/cycle with 16-cycle arbitration (the real EIB is four
// 16-byte-wide rings; command arbitration still serialises transfers
// that collide on a ring).
func DefaultEIBConfig() EIBConfig {
	return EIBConfig{Channels: 4, BytesPerCycle: 16, ArbCycles: 16}
}

// interval is one reserved stretch of channel time.
type interval struct {
	start, end Clock
}

// EIB is the Element Interconnect Bus. Each channel keeps a timeline of
// reserved intervals; a transfer occupies the earliest gap at or after
// its request time. Interval (rather than watermark) reservation matters
// because the machine's cores run on skewed local clocks: a request from
// a core whose clock lags must not queue behind reservations made at
// future timestamps if bus time was actually free.
type EIB struct {
	cfg      EIBConfig
	channels [][]interval
	// prunedAt is the last time prune ran; pruning is amortised to every
	// quarter-horizon rather than every transfer (dropping dead
	// intervals sooner or later never changes a gap search, so the
	// cadence is invisible to simulated results).
	prunedAt Clock

	// Transfers and Bytes count all traffic carried.
	Transfers uint64
	Bytes     uint64
	// WaitCycles accumulates time transfers spent queued for a channel.
	WaitCycles uint64
}

// NewEIB builds a bus from its configuration.
func NewEIB(cfg EIBConfig) *EIB {
	// Internal invariants, unreachable because vm.validate rejects an EIB
	// without a channel or without bandwidth.
	if cfg.Channels <= 0 {
		panic(fmt.Sprintf("cell: EIB needs at least one channel, got %d", cfg.Channels))
	}
	if cfg.BytesPerCycle <= 0 {
		panic("cell: EIB bandwidth must be positive")
	}
	return &EIB{cfg: cfg, channels: make([][]interval, cfg.Channels)}
}

// Transfer reserves channel time for n bytes requested at time now and
// returns the completion time.
func (e *EIB) Transfer(now Clock, n uint32) Clock {
	dur := e.Duration(n)

	// The earliest gap over all channels, ties to the lower index. No
	// channel can start before now, so the first one free at now wins.
	bestCh, bestIdx := -1, 0
	var bestStart Clock
	for ch := range e.channels {
		start, idx := gapAt(e.channels[ch], now, dur)
		if bestCh < 0 || start < bestStart {
			bestCh, bestIdx, bestStart = ch, idx, start
		}
		if start == now {
			break
		}
	}

	tl := e.channels[bestCh]
	tl = append(tl, interval{})
	copy(tl[bestIdx+1:], tl[bestIdx:])
	tl[bestIdx] = interval{start: bestStart, end: bestStart + dur}
	e.channels[bestCh] = tl

	if bestStart > now {
		e.WaitCycles += bestStart - now
	}
	e.Transfers++
	e.Bytes += uint64(n)

	e.prune(now)
	return bestStart + dur
}

// Duration is the channel time a transfer of n bytes occupies:
// arbitration plus payload, at least one cycle.
func (e *EIB) Duration(n uint32) Clock {
	return max(Clock(e.cfg.ArbCycles)+Clock(float64(n)/e.cfg.BytesPerCycle), 1)
}

// gapAt finds the earliest start >= now of a gap of length dur in a
// sorted timeline, returning the start and the insertion index. The
// timeline's intervals are disjoint and sorted, so ends are increasing:
// a timeline whose last interval finished by now is free at now (the
// uncontended case), and otherwise the walk starts at the first
// interval still running at now — found by stepping back from the tail,
// since only the few latest reservations end after now — and skips
// nothing that could hold a gap.
func gapAt(tl []interval, now Clock, dur Clock) (Clock, int) {
	first := len(tl)
	for first > 0 && tl[first-1].end > now {
		first--
	}
	if first == len(tl) {
		return now, first
	}
	start := now
	for i := first; i < len(tl); i++ {
		iv := tl[i]
		if iv.end <= start {
			continue // interval entirely before our candidate start
		}
		if iv.start >= start+dur {
			return start, i // gap before this interval fits
		}
		if iv.end > start {
			start = iv.end
		}
	}
	return start, len(tl)
}

// prune drops intervals that ended long before now on all channels; no
// future request can land there (core clocks only advance, and skew is
// bounded by the scheduler's quantum plus blocking-operation latencies,
// well under this horizon). It amortises to one sweep per
// quarter-horizon — pruning exists only to bound timeline length, so
// running it on every transfer just rescans live intervals.
func (e *EIB) prune(now Clock) {
	const horizon = 1 << 16
	if now < horizon || now < e.prunedAt+horizon/4 {
		return
	}
	e.prunedAt = now
	cut := now - horizon
	for ch, tl := range e.channels {
		keep := 0
		for _, iv := range tl {
			if iv.end >= cut {
				tl[keep] = iv
				keep++
			}
		}
		e.channels[ch] = tl[:keep]
	}
}
