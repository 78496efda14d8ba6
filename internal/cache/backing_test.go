package cache

import (
	"fmt"
	"strings"
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/isa"
	"herajvm/internal/mem"
)

// TestIdleLocalStoreHoldsNoBytes: building both software caches over a
// local store, as a VM boot does, maps none of it; a core that runs
// code and reads one 64-byte object holds the one page its data cache
// filled — the code cache copies nothing.
func TestIdleLocalStoreHoldsNoBytes(t *testing.T) {
	m := newMachine(t, 256<<10)
	dsize := DefaultDataCacheConfig().Size
	var dcs []*DataCache
	var ccs []*CodeCache
	for _, c := range m.CoresOf(isa.SPE) {
		dcs = append(dcs, NewDataCache(DefaultDataCacheConfig(), c, 0))
		ccs = append(ccs, NewCodeCache(DefaultCodeCacheConfig(), c, dsize))
	}
	now, _ := ccs[0].EnsureMethod(0, 1, 0x1000, 64, 1, 0x8000, 16<<10)
	_, _ = dcs[0].ReadObject(now, 0x20000, 64, 16, 8)
	busy, idle := m.CoreAt(isa.SPE, 0), m.CoreAt(isa.SPE, 1)
	if n := held(idle.LS); n != 0 {
		t.Errorf("%s ran nothing but holds %d host bytes", idle, n)
	}
	if n := held(busy.LS); n != mem.PageSize {
		t.Errorf("%s holds %d host bytes for one 64-byte fill and a 16 KB method, want one %d-byte page", busy, n, mem.PageSize)
	}
}

// TestCodeCacheMissCopiesNoBytes: a code-cache miss bills the same clock,
// DMA counters, MFC transfers and EIB traffic as copying the TIB and
// the code into the local store would, and copies nothing.
func TestCodeCacheMissCopiesNoBytes(t *testing.T) {
	const (
		tibAddr, tibSize   = mem.Addr(0x1000), uint32(80)
		codeAddr, codeSize = mem.Addr(0x8000), uint32(3 << 10)
		base               = 104 << 10
	)
	m := newMachine(t, 256<<10)
	core := m.CoreAt(isa.SPE, 0)
	reads := m.Mem.Reads
	now, cached := NewCodeCache(DefaultCodeCacheConfig(), core, base).
		EnsureMethod(100, 1, tibAddr, tibSize, 7, codeAddr, codeSize)
	if cached {
		t.Fatal("a cold code cache hit")
	}
	if held(core.LS) != 0 || m.Mem.Reads != reads {
		t.Errorf("a code-cache miss backed %d local-store bytes and read main memory %d times",
			held(core.LS), m.Mem.Reads-reads)
	}

	// The copying transfer, on a twin machine: TOC lookup, TIB insert
	// and DMA, TIB method read, code insert and DMA.
	twin := newMachine(t, 256<<10)
	tc := twin.CoreAt(isa.SPE, 0)
	var wait uint64
	dma := func(at cell.Clock, from mem.Addr, ls, n uint32) cell.Clock {
		done := tc.MFC.DMA(at, cell.DMAGet, from, ls, n)
		wait += done - at
		return done
	}
	want := dma(100+tocCycles+ccInsertCycles, tibAddr, base, tibSize)
	want = dma(want+tibCycles+ccInsertCycles, codeAddr, base+(tibSize+15)&^15, codeSize)

	s := core.Stats
	if now != want {
		t.Errorf("clock %d, copying transfer %d", now, want)
	}
	if s.DMATransfers != 2 || s.DMABytes != uint64(tibSize+codeSize) || s.DMAWait != wait {
		t.Errorf("DMA %d transfers %d bytes %d wait, want 2/%d/%d", s.DMATransfers, s.DMABytes, s.DMAWait, tibSize+codeSize, wait)
	}
	if core.MFC.Transfers != tc.MFC.Transfers || core.MFC.Bytes != tc.MFC.Bytes {
		t.Errorf("MFC %d transfers %d bytes, copying transfer %d/%d",
			core.MFC.Transfers, core.MFC.Bytes, tc.MFC.Transfers, tc.MFC.Bytes)
	}
	if m.EIB.Transfers != twin.EIB.Transfers || m.EIB.WaitCycles != twin.EIB.WaitCycles {
		t.Errorf("EIB %d transfers %d wait, copying transfer %d/%d",
			m.EIB.Transfers, m.EIB.WaitCycles, twin.EIB.Transfers, twin.EIB.WaitCycles)
	}
}

// TestLocalStoreBackingTracksDataCache: whatever the data cache fills,
// the local store holds exactly one 4 KB page for each page a fill has
// reached, and so never more than the cache's region spans.
func TestLocalStoreBackingTracksDataCache(t *testing.T) {
	for _, tc := range []struct {
		name         string
		lsSize, base uint32
	}{
		{"default layout", 256 << 10, 0},
		{"cache at the top of a 200 KB store", 200 << 10, 96 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMachine(t, tc.lsSize)
			core := m.CoreAt(isa.SPE, 0)
			dc := NewDataCache(DefaultDataCacheConfig(), core, tc.base)
			filled := map[uint32]bool{} // local-store pages some fill reached
			var now cell.Clock
			for i := uint32(0); i < 3000; i++ {
				// Objects of 16 B to 4 KB, each a multiple of the cache's
				// 16-byte grain: the bump pointer sweeps the region and
				// the cache flushes twice.
				size := uint32(16) << (i % 9)
				misses := core.Stats.DataMisses
				_, now = dc.ReadObject(now, 0x10000+i*64, size, 0, 4)
				if core.Stats.DataMisses != misses {
					end := tc.base + dc.bump
					for p := (end - size) / mem.PageSize; p*mem.PageSize < end; p++ {
						filled[p] = true
					}
				}
				if got := held(core.LS); got != len(filled)*mem.PageSize {
					t.Fatalf("after fill %d: %d host bytes for %d filled pages", i, got, len(filled))
				}
			}
			if core.Stats.DataFlushes < 2 {
				t.Fatalf("%d flushes: the fills never reached the cache's end", core.Stats.DataFlushes)
			}
			if region := DefaultDataCacheConfig().Size; held(core.LS) > int(region) {
				t.Fatalf("%d host bytes for a %d-byte cache region", held(core.LS), region)
			}
			t.Logf("%d pages for a %d KB cache region", len(filled), DefaultDataCacheConfig().Size>>10)
		})
	}
}

// TestDataCacheHitAllocatesNothing: once its entries are cached, the
// data cache's hit path — object reads and writes, array loads and
// stores — allocates nothing on the host.
func TestDataCacheHitAllocatesNothing(t *testing.T) {
	m, dc := newDC(t, 0)
	const obj, arr = mem.Addr(0x8000), mem.Addr(0x10000)
	newArray(m, arr, 64)
	var now cell.Clock
	hits := func() {
		_, now = dc.ReadObject(now, obj, 64, 16, 8)
		now = dc.WriteObject(now, obj, 64, 24, 4, 7)
		_, _, _, now = dc.AccessArray(now, arr, 5, 4, false, 0)
		_, _, _, now = dc.AccessArray(now, arr, 6, 4, true, 9)
	}
	hits()
	misses := dc.core.Stats.DataMisses
	if allocs := testing.AllocsPerRun(100, hits); allocs != 0 {
		t.Errorf("a warmed data cache's hit path allocates %.1f times per round", allocs)
	}
	if dc.core.Stats.DataMisses != misses {
		t.Fatalf("the warmed rounds missed %d times", dc.core.Stats.DataMisses-misses)
	}
}

// TestDataCacheRetireBillsWriteBack: retiring a dirty header-sized unit
// when the whole object is read at its address writes it back, billed
// to the core's DMA counters like every other transfer the cache
// issues.
func TestDataCacheRetireBillsWriteBack(t *testing.T) {
	m, dc := newDC(t, 0)
	const obj = mem.Addr(0x8000)
	now := dc.WriteObject(0, obj, isa.HeaderBytes, 4, 4, 0xabcd)
	before := dc.core.Stats
	v, _ := dc.ReadObject(now, obj, 64, 4, 4)
	s := dc.core.Stats
	if v != 0xabcd || m.Mem.Read32(obj+4) != 0xabcd {
		t.Fatalf("the header write did not survive the refill: read %#x, main memory %#x", v, m.Mem.Read32(obj+4))
	}
	if s.DataWriteBacks != 1 {
		t.Fatalf("%d write-backs, want 1", s.DataWriteBacks)
	}
	if s.DMATransfers != dc.core.MFC.Transfers {
		t.Errorf("the cache billed %d DMA transfers of the %d its MFC issued", s.DMATransfers, dc.core.MFC.Transfers)
	}
	if got := s.DMABytes - before.DMABytes; got != isa.HeaderBytes+64 {
		t.Errorf("the retiring read billed %d DMA bytes, want %d (write-back and fill)", got, isa.HeaderBytes+64)
	}
	if s.DMAWait-before.DMAWait != s.Cycles[isa.ClassMainMem]-before.Cycles[isa.ClassMainMem] {
		t.Errorf("DMA wait grew by %d but main-memory cycles by %d", s.DMAWait-before.DMAWait,
			s.Cycles[isa.ClassMainMem]-before.Cycles[isa.ClassMainMem])
	}
}

// mustPanic runs f and fails unless it panics with a message holding
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
			t.Errorf("recovered %q, want a panic naming %q", msg, want)
		}
	}()
	f()
}

// TestCachesRefuseBadLayouts: the caches' constructors refuse a core
// with no local store, a region past the store's end and a data cache
// whose array block is not a power of two.
func TestCachesRefuseBadLayouts(t *testing.T) {
	m := newMachine(t, 64<<10)
	ppe, spe := m.CoreAt(isa.PPE, 0), m.CoreAt(isa.SPE, 0)
	dcfg, ccfg := DefaultDataCacheConfig(), DefaultCodeCacheConfig()
	mustPanic(t, "requires a local-store core", func() { NewDataCache(dcfg, ppe, 0) })
	mustPanic(t, "requires a local-store core", func() { NewCodeCache(ccfg, ppe, 0) })
	mustPanic(t, "exceeds local store", func() { NewDataCache(dcfg, spe, 0) })
	mustPanic(t, "exceeds local store", func() { NewCodeCache(ccfg, spe, 64<<10-ccfg.Size+16) })
	dcfg.Size, dcfg.ArrayBlock = 32<<10, 1000
	mustPanic(t, "power of two", func() { NewDataCache(dcfg, spe, 0) })
}

// TestLocalStoreAccessors: a local-store page never written reads as
// zero for every width and is mapped by its first write, which later
// reads see; an access of no field's width is refused.
func TestLocalStoreAccessors(t *testing.T) {
	ls := mem.NewPages(16 << 10)
	for _, w := range []uint32{1, 2, 4, 8} {
		if v := readLS(ls, 2*mem.PageSize+8*w, w); v != 0 {
			t.Fatalf("an unwritten %d-byte word reads %#x", w, v)
		}
	}
	if held(ls) != 0 {
		t.Fatalf("reads mapped %d bytes", held(ls))
	}
	writeLS(ls, 3*mem.PageSize-8, 8, 0x0102030405060708)
	writeLS(ls, 3*mem.PageSize-12, 2, 0xbeef)
	if v := readLS(ls, 3*mem.PageSize-8, 4); v != 0x05060708 || held(ls) != mem.PageSize {
		t.Fatalf("read %#x back with %d bytes held, want 0x05060708 on one page", v, held(ls))
	}
	if v := readLS(ls, 3*mem.PageSize-12, 1); v != 0xef {
		t.Fatalf("read byte %#x, want 0xef", v)
	}
	mustPanic(t, "bad access width", func() { readLS(ls, 3*mem.PageSize-8, 3) })
	mustPanic(t, "bad access width", func() { writeLS(ls, 0, 16, 0) })
}

// held returns the host bytes a page table holds: PageSize for each
// mapped page.
func held(p mem.Pages) int {
	n := 0
	for _, pg := range p {
		if pg != nil {
			n += mem.PageSize
		}
	}
	return n
}
