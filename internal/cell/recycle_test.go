//go:build go1.24

package cell

import (
	"bytes"
	"runtime"
	"testing"

	"herajvm/internal/isa"
	"herajvm/internal/mem"
)

// recycleConfig is a PS3 machine with 1 MB of main memory.
func recycleConfig() Config {
	cfg := DefaultConfig()
	cfg.MainMemory = 1 << 20
	return cfg
}

// recycleSpan is the main memory and local-store span each test dirties:
// eight pages from address 0 of either.
const recycleSpan = 8 * mem.PageSize

// dirtyMachine writes fill over the span of a new machine's main memory
// and DMAs it into every local store.
func dirtyMachine(t *testing.T, fill func(i int) byte) *Machine {
	t.Helper()
	m, err := NewMachine(recycleConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, recycleSpan)
	for i := range b {
		b[i] = fill(i)
	}
	m.Mem.WriteBytes(0, b)
	for _, c := range m.CoresOf(isa.SPE) {
		c.MFC.DMA(0, DMAGet, 0, 0, recycleSpan)
	}
	return m
}

// droppedStorePages dirties a machine and drops it, returning the pages
// its local stores mapped.
func droppedStorePages(t *testing.T) map[mem.Page]bool {
	m := dirtyMachine(t, func(int) byte { return 0xff })
	old := map[mem.Page]bool{}
	for _, c := range m.CoresOf(isa.SPE) {
		for _, pg := range c.LS {
			if pg != nil {
				old[pg] = true
			}
		}
	}
	return old
}

// TestRecycledMachineReadsZero: once a machine is unreachable, its
// local stores' pages go back to the pool through their MFCs, and a
// fresh machine that maps them reads zero wherever the dead one wrote,
// in main memory and in every local store.
func TestRecycledMachineReadsZero(t *testing.T) {
	old := droppedStorePages(t)
	for i := 0; ; i++ {
		if i == 50 {
			t.Fatal("no fresh machine mapped a dead machine's local-store page in 50 collections")
		}
		runtime.GC()
		m, err := NewMachine(recycleConfig())
		if err != nil {
			t.Fatal(err)
		}
		reused := false
		for a := uint32(0); a < recycleSpan; a += mem.PageSize {
			m.Mem.Write8(a, 1) // maps the leaf; the rest of it must read zero
		}
		for _, c := range m.CoresOf(isa.SPE) {
			// One byte a page maps each page with the byte main memory
			// holds there; the page's other bytes must read zero.
			for a := uint32(0); a < recycleSpan; a += mem.PageSize {
				c.MFC.DMA(0, DMAGet, a, a, 1)
				reused = reused || old[c.LS[a>>mem.PageShift]]
			}
		}
		want := make([]byte, recycleSpan)
		for a := 0; a < recycleSpan; a += mem.PageSize {
			want[a] = 1
		}
		got := make([]byte, recycleSpan)
		m.Mem.ReadBytes(0, got)
		if !bytes.Equal(got, want) {
			t.Fatal("a fresh machine's main memory reads a dead machine's bytes")
		}
		for _, c := range m.CoresOf(isa.SPE) {
			for i, pg := range c.LS[:recycleSpan/mem.PageSize] {
				if !bytes.Equal(pg[:], want[i*mem.PageSize:(i+1)*mem.PageSize]) {
					t.Fatalf("page %d of %s's local store reads a dead machine's bytes", i, c)
				}
			}
		}
		if reused {
			return
		}
	}
}

// TestLiveMachineNotRecycled: a machine kept reachable across
// collections keeps every byte it wrote, in main memory and in every
// local store.
func TestLiveMachineNotRecycled(t *testing.T) {
	fill := func(i int) byte { return byte(i*5 + i>>12 + 1) }
	m := dirtyMachine(t, fill)
	for range 5 {
		runtime.GC()
		runtime.Gosched() // let queued cleanups run
		// Another machine's pages come from the pool, so a recycled page
		// of m's would be overwritten here.
		dirtyMachine(t, func(int) byte { return 0xee })
	}
	want := make([]byte, recycleSpan)
	for i := range want {
		want[i] = fill(i)
	}
	got := make([]byte, recycleSpan)
	m.Mem.ReadBytes(0, got)
	if !bytes.Equal(got, want) {
		t.Error("a live machine's main memory lost bytes across collections")
	}
	for _, c := range m.CoresOf(isa.SPE) {
		for i, pg := range c.LS[:recycleSpan/mem.PageSize] {
			if !bytes.Equal(pg[:], want[i*mem.PageSize:(i+1)*mem.PageSize]) {
				t.Errorf("page %d of %s's local store lost bytes across collections", i, c)
			}
		}
	}
	runtime.KeepAlive(m)
}
