package cache

import (
	"testing"

	"herajvm/internal/isa"
	"herajvm/internal/mem"
)

// TestStageArrayPrefetchesBlocks: staging fills the same
// ArrayBlock-aligned tiles a demand miss would, so subsequent array
// reads hit; the worker blocks only for the first tile while every
// staged byte is still billed to the DMA counters.
func TestStageArrayPrefetchesBlocks(t *testing.T) {
	m, dc := newDC(t, 0)
	arr := mem.Addr(0x8000)
	data := arr + isa.HeaderBytes
	size := uint32(4096) // four 1KB blocks
	newArray(m, arr, size/4)
	for off := uint32(0); off < size; off += 4 {
		m.Mem.Write32(data+off, 0xa0000000|off)
	}

	now, staged := dc.StageArray(0, data, size, size)
	if staged != size {
		t.Fatalf("staged %d bytes, want %d", staged, size)
	}
	if dc.core.Stats.DataStaged != uint64(size) || dc.core.Stats.DMABytes != uint64(size) {
		t.Errorf("staged=%d dma=%d, want %d/%d",
			dc.core.Stats.DataStaged, dc.core.Stats.DMABytes, size, size)
	}
	if dc.core.Stats.DMATransfers != 4 {
		t.Errorf("transfers = %d, want 4", dc.core.Stats.DMATransfers)
	}
	if now == 0 {
		t.Error("staging must cost cycles")
	}

	// Every subsequent element access must hit its block; only the
	// length word, which staging does not cover, misses (once).
	miss0 := dc.core.Stats.DataMisses
	for off := uint32(0); off < size; off += 512 {
		var v uint64
		v, _, _, now = dc.AccessArray(now, arr, int32(off/4), 4, false, 0)
		if uint32(v) != 0xa0000000|off {
			t.Fatalf("read at %d = %#x", off, v)
		}
	}
	if dc.core.Stats.DataMisses != miss0+1 {
		t.Errorf("staged reads missed %d times, want 1 (the header)", dc.core.Stats.DataMisses-miss0)
	}
}

// TestStageArrayDoubleBufferOverlap: only the leading tile's payload
// stalls the worker — later tiles cost bookkeeping alone.
func TestStageArrayDoubleBufferOverlap(t *testing.T) {
	_, one := newDC(t, 0)
	t1, _ := one.StageArray(0, 0x8000, 1024, 1<<20)

	_, four := newDC(t, 0)
	t4, _ := four.StageArray(0, 0x8000, 4096, 1<<20)

	perTile := uint64(dcProbeCycles + dcInsertCycles)
	if uint64(t4) >= uint64(t1)+4*uint64(t1) {
		t.Fatalf("four tiles cost %d vs one tile %d: no overlap modelled", t4, t1)
	}
	if uint64(t4-t1) > 3*(perTile+50) {
		t.Errorf("trailing tiles cost %d cycles beyond the first, want issue overhead only", t4-t1)
	}
	if four.core.Stats.DMAWait >= 4*one.core.Stats.DMAWait {
		t.Errorf("DMAWait %d vs single-tile %d: trailing tiles must not stall",
			four.core.Stats.DMAWait, one.core.Stats.DMAWait)
	}
}

// TestStageArrayRespectsBudgetAndCapacity: staging stops at the byte
// budget and never triggers a flush.
func TestStageArrayRespectsBudgetAndCapacity(t *testing.T) {
	_, dc := newDC(t, 0)
	_, staged := dc.StageArray(0, 0x8000, 8192, 2048)
	if staged != 2048 {
		t.Fatalf("staged %d, want the 2048 budget", staged)
	}

	// A tiny cache: staging fills what fits and stops, no flushes.
	_, small := newDC(t, 2048)
	_, staged = small.StageArray(0, 0x8000, 8192, 8192)
	if staged == 0 || staged > 2048 {
		t.Fatalf("staged %d into a 2048-byte cache", staged)
	}
	if small.core.Stats.DataFlushes != 0 {
		t.Error("staging flushed the cache")
	}

	// Restaging the same extent is free of new transfers.
	before := dc.core.Stats.DMATransfers
	_, staged = dc.StageArray(0, 0x8000, 2048, 4096)
	if staged != 0 || dc.core.Stats.DMATransfers != before {
		t.Errorf("restage moved %d bytes, %d new transfers", staged, dc.core.Stats.DMATransfers-before)
	}
}
