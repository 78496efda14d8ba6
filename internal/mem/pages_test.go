package mem

import (
	"bytes"
	"math/rand"
	"testing"
)

// pagesModel moves bytes between a paged Main and a Pages table, as a
// local store's DMA does, and mirrors every move on two flat slices.
type pagesModel struct {
	t      testing.TB
	main   *model
	ls     Pages
	flatLS []byte
	filled map[uint32]bool // pages a ReadPages has reached
}

func newPagesModel(t testing.TB, mainSize, lsSize uint32) *pagesModel {
	return &pagesModel{t: t, main: newModel(t, mainSize), ls: NewPages(lsSize),
		flatLS: make([]byte, lsSize), filled: map[uint32]bool{}}
}

// get is a DMA get: n bytes of memory at addr into the table at at.
func (x *pagesModel) get(addr Addr, at, n uint32) {
	x.t.Helper()
	reads := x.main.m.Reads
	x.main.m.ReadPages(addr, x.ls, at, n)
	copy(x.flatLS[at:at+n], x.main.flat[addr:])
	for p := at >> PageShift; n > 0 && p <= (at+n-1)>>PageShift; p++ {
		x.filled[p] = true
	}
	if x.main.m.Reads != reads+1 {
		x.t.Fatalf("ReadPages counted %d reads, want 1", x.main.m.Reads-reads)
	}
	x.check()
}

// put is a DMA put: n bytes of the table at at to memory at addr.
func (x *pagesModel) put(addr Addr, at, n uint32) {
	x.t.Helper()
	writes := x.main.m.Writes
	x.main.m.WritePages(addr, x.ls, at, n)
	copy(x.main.flat[addr:addr+n], x.flatLS[at:])
	if x.main.m.Writes != writes+1 {
		x.t.Fatalf("WritePages counted %d writes, want 1", x.main.m.Writes-writes)
	}
	x.check()
}

// check compares the table with its flat mirror, and the pages it holds
// with the pages gets have filled: a put maps none.
func (x *pagesModel) check() {
	x.t.Helper()
	for i, p := range x.ls {
		want := x.flatLS[i*PageSize : min((i+1)*PageSize, len(x.flatLS))]
		if (p != nil) != x.filled[uint32(i)] {
			x.t.Fatalf("page %d mapped %v, filled by a get %v", i, p != nil, x.filled[uint32(i)])
		}
		if p != nil && !bytes.Equal(p[:len(want)], want) {
			x.t.Fatalf("page %d differs from the flat local store", i)
		}
		if p == nil && bytes.Count(want, []byte{0}) != len(want) {
			x.t.Fatalf("unmapped page %d should read as zero", i)
		}
	}
	if held(x.ls) != len(x.filled)*PageSize {
		x.t.Fatalf("Held %d bytes for %d filled pages", held(x.ls), len(x.filled))
	}
}

// TestPagesDMAVsFlat moves random spans — many crossing a page of one
// side or both, some from unmapped memory or unwritten pages — between
// main memory and a 5-page table that ends mid-page, and holds both
// sides to flat references after every move.
func TestPagesDMAVsFlat(t *testing.T) {
	const lsSize = 4*PageSize + 1000
	x := newPagesModel(t, 4<<dirShift, lsSize)
	if len(x.ls) != 5 {
		t.Fatalf("a %d-byte store has %d pages, want 5", lsSize, len(x.ls))
	}
	x.put(0x100, 2*PageSize, 300) // from an unwritten page: zeros, nothing mapped
	for a := Addr(0); a < 2<<dirShift; a += 4096 + 7 {
		x.main.write(a, 8, uint64(a)*0x9e3779b97f4a7c15)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		n := uint32(1 + rng.Intn(9000))
		if rng.Intn(4) == 0 {
			n = uint32(1 + rng.Intn(64))
		}
		at := uint32(rng.Intn(lsSize - int(n) + 1))
		addr := Addr(rng.Intn(4<<dirShift - int(n) + 1))
		if rng.Intn(2) == 0 {
			x.get(addr, at, n)
		} else {
			x.put(addr, at, n)
		}
	}
	x.main.readBytes(0, 4<<dirShift)
	if len(x.filled) != 5 {
		t.Fatalf("the run filled %d of 5 pages; it must reach them all", len(x.filled))
	}
}

// TestPagesPutFromUnwrittenMapsNothing: a put from a page never written
// zeroes main memory where it was mapped, and leaves unmapped memory and
// the table unmapped.
func TestPagesPutFromUnwrittenMapsNothing(t *testing.T) {
	m := NewMain(1 << 20)
	ls := NewPages(64 << 10)
	m.WriteBytes(PageSize-16, bytes.Repeat([]byte{0xab}, 32)) // two leaves
	before := mappedPages(m)
	m.WritePages(PageSize-64, ls, 3*PageSize-10, 128) // across main's leaves and ls's pages
	m.WritePages(9*PageSize, ls, 0, 2*PageSize)       // over unmapped memory
	if got := m.Read64(PageSize - 8); got != 0 {
		t.Errorf("mapped memory reads %#x after a zero put", got)
	}
	if mappedPages(m) != before || held(ls) != 0 {
		t.Errorf("a zero put mapped %d leaves of memory and %d bytes of the table",
			mappedPages(m)-before, held(ls))
	}
}

// held returns the host bytes a page table holds: PageSize for each
// mapped page.
func held(p Pages) int {
	n := 0
	for _, pg := range p {
		if pg != nil {
			n += PageSize
		}
	}
	return n
}
