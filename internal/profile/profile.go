// Package profile holds CoreStats, what one simulated core did: its
// cycles bucketed by operation class (the paper's Figure 5 breakdown),
// idle time, retired and fast-forwarded instructions, software-cache
// events (Figures 6 and 7), DMA traffic, steals and migrations. The
// machine, the VM's report, the experiments and the benchmark read it.
// The per-method profile the placement policies read is the VM's own
// (internal/vm/ledger.go).
package profile

import (
	"fmt"
	"strings"

	"herajvm/internal/isa"
)

// CoreStats aggregates everything one simulated core did.
type CoreStats struct {
	// Cycles bucketed by operation class. Their sum is the busy time;
	// Idle is time the core spent with no runnable thread.
	Cycles [isa.NumClasses]uint64
	Idle   uint64

	// Instrs is the number of machine instructions retired.
	Instrs uint64

	// FastForwardedBlocks/Instrs count superblock fast-forwards: whole
	// pure straight-line runs whose memoized cost and stack effects the
	// executor applied in one step instead of per-instruction dispatch.
	// The fast-forwarded instructions are also counted in Instrs and
	// their cycles in Cycles — these counters only say how much of the
	// work took the memoized path (the simulation-speed hit rate).
	FastForwardedBlocks uint64
	FastForwardedInstrs uint64

	// Data cache (SPE software cache or PPE L1/L2) events.
	DataHits, DataMisses uint64
	DataFlushes          uint64 // whole-cache flushes (SPE: cache filled)
	DataPurges           uint64 // coherence purges at lock/volatile ops
	DataWriteBacks       uint64 // dirty entries written back

	// Code cache events (SPE only).
	CodeHits, CodeMisses uint64
	CodePurges           uint64
	TIBHits, TIBMisses   uint64

	// DMA traffic issued by this core's MFC.
	DMATransfers uint64
	DMABytes     uint64
	DMAWait      uint64 // cycles stalled waiting on DMA completion
	// DataStaged counts bytes a kernel worker prefetched into its data
	// cache by double-buffered tile staging — a subset of DMABytes that
	// makes kernel DMA traffic visible separately from demand misses.
	DataStaged uint64

	// Thread events. Migrations cross core kinds (a placement-policy
	// decision); steals move a queued thread between same-kind cores
	// (the work-stealing scheduler repairing load imbalance).
	MigrationsIn, MigrationsOut uint64
	StealsIn, StealsOut         uint64
	Syscalls                    uint64
}

// Busy returns the total busy cycles across all classes.
func (s *CoreStats) Busy() uint64 {
	var t uint64
	for _, c := range s.Cycles {
		t += c
	}
	return t
}

// Charge adds n cycles to the given class.
func (s *CoreStats) Charge(class isa.OpClass, n uint64) {
	s.Cycles[class] += n
}

// DataHitRate returns hits/(hits+misses), or 1 when there were no
// accesses.
func (s *CoreStats) DataHitRate() float64 {
	return rate(s.DataHits, s.DataMisses)
}

// CodeHitRate returns the code-cache hit rate.
func (s *CoreStats) CodeHitRate() float64 {
	return rate(s.CodeHits, s.CodeMisses)
}

func rate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 1
	}
	return float64(hits) / float64(hits+misses)
}

// Add accumulates o into s.
func (s *CoreStats) Add(o *CoreStats) {
	for i := range s.Cycles {
		s.Cycles[i] += o.Cycles[i]
	}
	s.Idle += o.Idle
	s.Instrs += o.Instrs
	s.FastForwardedBlocks += o.FastForwardedBlocks
	s.FastForwardedInstrs += o.FastForwardedInstrs
	s.DataHits += o.DataHits
	s.DataMisses += o.DataMisses
	s.DataFlushes += o.DataFlushes
	s.DataPurges += o.DataPurges
	s.DataWriteBacks += o.DataWriteBacks
	s.CodeHits += o.CodeHits
	s.CodeMisses += o.CodeMisses
	s.CodePurges += o.CodePurges
	s.TIBHits += o.TIBHits
	s.TIBMisses += o.TIBMisses
	s.DMATransfers += o.DMATransfers
	s.DMABytes += o.DMABytes
	s.DMAWait += o.DMAWait
	s.DataStaged += o.DataStaged
	s.MigrationsIn += o.MigrationsIn
	s.MigrationsOut += o.MigrationsOut
	s.StealsIn += o.StealsIn
	s.StealsOut += o.StealsOut
	s.Syscalls += o.Syscalls
}

// ClassShares returns each operation class's share of busy cycles, in
// class order. This is a row of the paper's Figure 5.
func (s *CoreStats) ClassShares() [isa.NumClasses]float64 {
	var out [isa.NumClasses]float64
	busy := s.Busy()
	if busy == 0 {
		return out
	}
	for i, c := range s.Cycles {
		out[i] = float64(c) / float64(busy)
	}
	return out
}

// String formats a compact single-core report.
func (s *CoreStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "busy=%d idle=%d instrs=%d", s.Busy(), s.Idle, s.Instrs)
	fmt.Fprintf(&b, " dcache=%.3f ccache=%.3f dma=%dB",
		s.DataHitRate(), s.CodeHitRate(), s.DMABytes)
	return b.String()
}
