//go:build go1.24

package mem

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// lsOwner stands in for a local store's MFC: the one object through
// which the test reaches its table.
type lsOwner struct{ ls Pages }

// recycleSize spans two directory entries, each of which registers its
// own cleanup when it is mapped.
const recycleSize = 2 << dirShift

// ownedPages returns a table for size bytes owned by a new lsOwner.
func ownedPages(size uint32) *lsOwner {
	o := &lsOwner{ls: NewPages(size)}
	OwnPages(o, o.ls)
	return o
}

// dirtyAndDrop fills every byte of a new Main and of an owned table with
// 0xff and drops both, returning the pages they mapped.
func dirtyAndDrop() map[Page]bool {
	m, o := NewMain(recycleSize), ownedPages(recycleSize)
	ones := bytes.Repeat([]byte{0xff}, recycleSize)
	m.WriteBytes(0, ones)
	m.ReadPages(0, o.ls, 0, recycleSize)
	mapped := map[Page]bool{}
	for a := Addr(0); a < recycleSize; a += PageSize {
		mapped[m.leaf(a)], mapped[o.ls[a>>PageShift]] = true, true
	}
	return mapped
}

// drainPool empties the page pool, returning the pages it held.
func drainPool() []Page {
	var pgs []Page
	for pg, ok := pool.Get().(Page); ok; pg, ok = pool.Get().(Page) {
		pgs = append(pgs, pg)
	}
	return pgs
}

// TestRecycledPagesReadZero: once a Main and an owned table are
// unreachable, their pages come back through the pool cleared, and a
// fresh Main and table that map them read zero at every address the
// dead ones wrote.
func TestRecycledPagesReadZero(t *testing.T) {
	old := dirtyAndDrop()
	var back []Page
	for i := 0; ; i++ {
		if i == 50 {
			t.Fatal("no page of a dropped Main or table reached the pool in 50 collections")
		}
		runtime.GC()
		back = append(back, drainPool()...)
		if recycled(back, old) > 0 {
			break
		}
	}
	for _, pg := range back {
		if *pg != ([PageSize]byte{}) {
			t.Fatal("a pooled page holds a dead owner's bytes")
		}
		pool.Put(pg)
	}

	m, o := NewMain(recycleSize), ownedPages(recycleSize)
	var fresh []Page
	for a := Addr(0); a < recycleSize; a += PageSize {
		m.Write8(a, 1) // maps the page, from the pool while it has one
		o.ls.Map(a)[0] = 1
		fresh = append(fresh, m.leaf(a), o.ls[a>>PageShift])
	}
	if recycled(fresh, old) == 0 {
		t.Fatal("a fresh Main and table mapped no recycled page")
	}
	got, want := make([]byte, recycleSize), make([]byte, recycleSize)
	for a := 0; a < recycleSize; a += PageSize {
		want[a] = 1
	}
	m.ReadBytes(0, got)
	if !bytes.Equal(got, want) {
		t.Error("a fresh Main reads a dead one's bytes")
	}
	for i, pg := range o.ls {
		if !bytes.Equal(pg[:], want[i*PageSize:(i+1)*PageSize]) {
			t.Errorf("page %d of a fresh table reads a dead one's bytes", i)
		}
	}
	runtime.KeepAlive(o)
}

// recycled counts the pages of pgs that old mapped.
func recycled(pgs []Page, old map[Page]bool) int {
	n := 0
	for _, pg := range pgs {
		if old[pg] {
			n++
		}
	}
	return n
}

// TestLivePagesNotRecycled: a Main and an owned table kept reachable
// across collections keep every byte they wrote, and the pool never
// holds one of their pages.
func TestLivePagesNotRecycled(t *testing.T) {
	m, o := NewMain(recycleSize), ownedPages(recycleSize)
	pattern := make([]byte, recycleSize)
	for i := range pattern {
		pattern[i] = byte(i*7 + i>>12 + 1)
	}
	m.WriteBytes(0, pattern)
	m.ReadPages(0, o.ls, 0, recycleSize)
	live := map[Page]bool{}
	for a := Addr(0); a < recycleSize; a += PageSize {
		live[m.leaf(a)], live[o.ls[a>>PageShift]] = true, true
	}
	for range 5 {
		runtime.GC()
		runtime.Gosched() // let queued cleanups run
		if pgs := drainPool(); recycled(pgs, live) > 0 {
			t.Fatal("the pool holds a page of a live Main or table")
		}
	}
	got := make([]byte, recycleSize)
	m.ReadBytes(0, got)
	if !bytes.Equal(got, pattern) {
		t.Error("a live Main lost bytes across collections")
	}
	for i, pg := range o.ls {
		if !bytes.Equal(pg[:], pattern[i*PageSize:(i+1)*PageSize]) {
			t.Errorf("page %d of a live table lost bytes across collections", i)
		}
	}
	runtime.KeepAlive(m)
	runtime.KeepAlive(o)
}

// TestRecycledPagesAcrossGoroutines: memories made, written and dropped
// on several goroutines at once, with collections between, each read
// back exactly what they wrote, whichever goroutine's dead memory their
// pages came from.
func TestRecycledPagesAcrossGoroutines(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				m := NewMain(recycleSize)
				want := make([]byte, recycleSize)
				for a := i; a < recycleSize; a += PageSize {
					want[a] = byte(g<<5 + i + 1)
					m.Write8(Addr(a), want[a])
				}
				got := make([]byte, recycleSize)
				m.ReadBytes(0, got)
				if !bytes.Equal(got, want) {
					t.Errorf("goroutine %d, memory %d reads bytes it did not write", g, i)
					return
				}
				if i%5 == 4 {
					runtime.GC()
				}
			}
		}()
	}
	wg.Wait()
}
