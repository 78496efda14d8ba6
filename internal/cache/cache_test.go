package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"herajvm/internal/cell"
	"herajvm/internal/isa"
	"herajvm/internal/mem"
)

func newSPE(t testing.TB) (*cell.Machine, *cell.Core) {
	t.Helper()
	cfg := cell.DefaultConfig()
	cfg.Topology = cell.PS3Topology(2)
	cfg.MainMemory = 1 << 20 // tests touch low addresses only; keep allocation cheap
	m, err := cell.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, m.CoresOf(isa.SPE)[0]
}

func newDC(t testing.TB, size uint32) (*cell.Machine, *DataCache) {
	m, core := newSPE(t)
	cfg := DefaultDataCacheConfig()
	if size != 0 {
		cfg.Size = size
	}
	return m, NewDataCache(cfg, core, 0)
}

func TestDataCacheObjectRoundTrip(t *testing.T) {
	m, dc := newDC(t, 0)
	obj := mem.Addr(0x8000)
	objSize := uint32(64)
	m.Mem.Write32(obj+16, 0xcafe)

	v, now := dc.ReadObject(0, obj, objSize, 16, 4)
	if v != 0xcafe {
		t.Errorf("first read: got %#x", v)
	}
	if now == 0 {
		t.Error("miss should cost cycles")
	}
	if dc.core.Stats.DataMisses != 1 {
		t.Errorf("misses: %d", dc.core.Stats.DataMisses)
	}

	// Second read of another field in the same object: whole-object
	// caching means it must hit.
	m.Mem.Write32(obj+24, 0xbeef) // written behind the cache's back...
	v2, now2 := dc.ReadObject(now, obj, objSize, 24, 4)
	if dc.core.Stats.DataHits != 1 {
		t.Errorf("hits: %d", dc.core.Stats.DataHits)
	}
	if v2 == 0xbeef {
		t.Error("cache must return the cached copy, not fresh main memory (no coherence)")
	}
	if now2-now > 20 {
		t.Errorf("hit cost %d cycles: too expensive", now2-now)
	}
}

func TestDataCacheWriteBackOnFlush(t *testing.T) {
	m, dc := newDC(t, 0)
	obj := mem.Addr(0x8000)
	now := dc.WriteObject(0, obj, 64, 16, 4, 0x1234)
	if m.Mem.Read32(obj+16) == 0x1234 {
		t.Error("write must not reach main memory before flush")
	}
	dc.Flush(now)
	if m.Mem.Read32(obj+16) != 0x1234 {
		t.Error("flush must write dirty data back")
	}
	if dc.core.Stats.DataWriteBacks != 1 {
		t.Errorf("write-backs: %d", dc.core.Stats.DataWriteBacks)
	}
	// After flush the entry stays cached.
	_, _ = dc.ReadObject(now, obj, 64, 16, 4)
	if dc.core.Stats.DataHits == 0 {
		t.Error("flush must keep entries resident")
	}
}

func TestDataCachePurgeInvalidatesButKeepsWrites(t *testing.T) {
	m, dc := newDC(t, 0)
	obj := mem.Addr(0x9000)
	now := dc.WriteObject(0, obj, 32, 16, 8, 0xfeedface)
	now = dc.Purge(now)
	if dc.Entries() != 0 {
		t.Error("purge must drop all entries")
	}
	// The thread's own write must have survived via write-back.
	if m.Mem.Read64(obj+16) != 0xfeedface {
		t.Error("purge lost a dirty write")
	}
	// And a subsequent read must fetch fresh data (acquire semantics).
	m.Mem.Write64(obj+16, 0x5555)
	v, _ := dc.ReadObject(now, obj, 32, 16, 8)
	if v != 0x5555 {
		t.Errorf("post-purge read got stale %#x", v)
	}
}

// newArray writes the length word of an n-element array whose header
// starts at arr; its elements follow the header.
func newArray(m *cell.Machine, arr mem.Addr, n uint32) {
	m.Mem.Write32(arr+isa.HeaderLengthOff, n)
}

func TestDataCacheArrayBlocking(t *testing.T) {
	m, dc := newDC(t, 0)
	arr := mem.Addr(0x10000)
	newArray(m, arr, 16<<10) // 64 KB of int elements
	for i := uint32(0); i < 2048; i += 4 {
		m.Mem.Write32(arr+isa.HeaderBytes+i, i)
	}
	// First element access: caches the header and a 1 KB block.
	v, n, ok, now := dc.AccessArray(0, arr, 0, 4, false, 0)
	if v != 0 || n != 16<<10 || !ok {
		t.Errorf("elem 0: %d, length %d, in bounds %v", v, n, ok)
	}
	if misses := dc.core.Stats.DataMisses; misses != 2 {
		t.Errorf("the first access missed %d times, want 2 (header, block)", misses)
	}
	misses := dc.core.Stats.DataMisses
	// Neighbouring elements within the block: all hits.
	for i := int32(1); i < 256; i++ {
		v, _, _, now = dc.AccessArray(now, arr, i, 4, false, 0)
		if uint32(v) != uint32(i)*4 {
			t.Fatalf("elem %d: got %d", i, v)
		}
	}
	if dc.core.Stats.DataMisses != misses {
		t.Error("accesses within a cached block must hit")
	}
	// Next block: one more miss.
	_, _, _, _ = dc.AccessArray(now, arr, 256, 4, false, 0)
	if dc.core.Stats.DataMisses != misses+1 {
		t.Error("crossing a block boundary should miss once")
	}
}

func TestDataCacheFlushWhenFull(t *testing.T) {
	m, dc := newDC(t, 8<<10) // 8 KB cache
	now := cell.Clock(0)
	// Touch 32 distinct 1 KB-block arrays: must trigger whole-cache flushes.
	for i := 0; i < 32; i++ {
		arr := mem.Addr(0x20000 + i*0x1000)
		newArray(m, arr, 1000)
		_, _, _, now = dc.AccessArray(now, arr, 0, 4, false, 0)
	}
	if dc.core.Stats.DataFlushes == 0 {
		t.Error("filling the cache must flush it")
	}
	if dc.UsedBytes() > 8<<10 {
		t.Errorf("bump pointer overran the region: %d", dc.UsedBytes())
	}
}

func TestDataCacheMissesCostMoreThanHits(t *testing.T) {
	_, dc := newDC(t, 0)
	obj := mem.Addr(0x8000)
	_, afterMiss := dc.ReadObject(0, obj, 256, 16, 4)
	before := afterMiss
	_, afterHit := dc.ReadObject(before, obj, 256, 20, 4)
	missCost := afterMiss
	hitCost := afterHit - before
	if hitCost*5 > missCost {
		t.Errorf("miss (%d cycles) should dwarf hit (%d cycles)", missCost, hitCost)
	}
}

// Property: any sequence of cached writes followed by a flush leaves main
// memory equal to what direct writes would have produced (the software
// cache is transparent for a single core once flushed).
func TestDataCacheTransparencyProperty(t *testing.T) {
	f := func(seed int64, ops []uint16) bool {
		m, dc := newDC(t, 16<<10)
		rng := rand.New(rand.NewSource(seed))
		shadow := make(map[uint32]uint64)
		arr := mem.Addr(0x40000)
		base := arr + isa.HeaderBytes
		dataSize := uint32(32 << 10)
		newArray(m, arr, dataSize/8)
		now := cell.Clock(0)
		for _, op := range ops {
			off := (uint32(op) * 8) % (dataSize - 8)
			val := rng.Uint64()
			_, _, _, now = dc.AccessArray(now, arr, int32(off/8), 8, true, val)
			shadow[off] = val
			// Occasionally read through the cache and compare with shadow.
			if op%7 == 0 {
				got, _, _, n2 := dc.AccessArray(now, arr, int32(off/8), 8, false, 0)
				now = n2
				if got != val {
					return false
				}
			}
		}
		dc.Flush(now)
		for off, val := range shadow {
			if m.Mem.Read64(base+off) != val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCodeCacheHitAfterMiss(t *testing.T) {
	m, core := newSPE(t)
	_ = m
	cc := NewCodeCache(DefaultCodeCacheConfig(), core, 0)
	now, cached := cc.EnsureMethod(0, 1, 0x1000, 128, 7, 0x2000, 4096)
	if cached {
		t.Error("first ensure must miss")
	}
	if core.Stats.CodeMisses != 1 || core.Stats.TIBMisses != 1 {
		t.Errorf("miss counters: code=%d tib=%d", core.Stats.CodeMisses, core.Stats.TIBMisses)
	}
	before := now
	now, cached = cc.EnsureMethod(now, 1, 0x1000, 128, 7, 0x2000, 4096)
	if !cached {
		t.Error("second ensure must hit")
	}
	if now-before > 30 {
		t.Errorf("hit path cost %d cycles; the double dereference should be cheap", now-before)
	}
}

func TestCodeCachePurgeWhenFull(t *testing.T) {
	m, core := newSPE(t)
	_ = m
	cfg := DefaultCodeCacheConfig()
	cfg.Size = 16 << 10
	cc := NewCodeCache(cfg, core, 0)
	now := cell.Clock(0)
	for id := 0; id < 8; id++ {
		now, _ = cc.EnsureMethod(now, id, mem.Addr(0x1000+id*0x100), 64,
			100+id, mem.Addr(0x8000+id*0x1000), 4<<10)
	}
	if core.Stats.CodePurges == 0 {
		t.Error("filling the code cache must purge it")
	}
	// After purge, re-ensuring an early method misses again.
	misses := core.Stats.CodeMisses
	_, cached := cc.EnsureMethod(now, 0, 0x1000, 64, 100, 0x8000, 4<<10)
	if cached || core.Stats.CodeMisses != misses+1 {
		t.Error("purged method should miss on re-entry")
	}
}

func TestCodeCacheOversizedMethodStreams(t *testing.T) {
	m, core := newSPE(t)
	_ = m
	cfg := DefaultCodeCacheConfig()
	cfg.Size = 8 << 10
	cc := NewCodeCache(cfg, core, 0)
	// 32 KB method can never fit in an 8 KB cache: every call re-streams.
	_, cached := cc.EnsureMethod(0, 1, 0x1000, 64, 5, 0x8000, 32<<10)
	if cached {
		t.Error("oversized method must not report cached")
	}
	_, cached = cc.EnsureMethod(0, 1, 0x1000, 64, 5, 0x8000, 32<<10)
	if cached {
		t.Error("oversized method must keep missing")
	}
	if cc.CachedMethods() != 0 {
		t.Error("oversized method must not be recorded")
	}
}

func TestCodeCacheReenterChargesLookup(t *testing.T) {
	m, core := newSPE(t)
	_ = m
	cc := NewCodeCache(DefaultCodeCacheConfig(), core, 0)
	now, _ := cc.EnsureMethod(0, 1, 0x1000, 64, 5, 0x8000, 1024)
	before := now
	now = cc.Reenter(now, 1, 0x1000, 64, 5, 0x8000, 1024)
	if now == before {
		t.Error("Reenter must cost cycles")
	}
	if core.Stats.CodeHits == 0 {
		t.Error("Reenter of resident method should hit")
	}
}

func TestTIBSharedAcrossMethods(t *testing.T) {
	m, core := newSPE(t)
	_ = m
	cc := NewCodeCache(DefaultCodeCacheConfig(), core, 0)
	now, _ := cc.EnsureMethod(0, 1, 0x1000, 256, 5, 0x8000, 512)
	_, _ = cc.EnsureMethod(now, 1, 0x1000, 256, 6, 0x9000, 512)
	if core.Stats.TIBMisses != 1 {
		t.Errorf("TIB should be fetched once per class: %d misses", core.Stats.TIBMisses)
	}
	if core.Stats.TIBHits != 1 {
		t.Errorf("second method should hit the TIB: %d hits", core.Stats.TIBHits)
	}
}

// BenchmarkDataCacheHitGrownIndex measures the host cost of a
// software-cache hit after 2 000 distinct objects have grown the lookup
// table five times (the hit at the table's initial size is the
// repository benchmark's cache.data_read_hit_ns).
func BenchmarkDataCacheHitGrownIndex(b *testing.B) {
	const objects = 2000
	machine, err := cell.NewMachine(cell.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	dc := NewDataCache(DefaultDataCacheConfig(), machine.CoresOf(isa.SPE)[0], 0)
	var now cell.Clock
	for i := 0; i < objects; i++ {
		_, now = dc.ReadObject(now, 0x100000+uint32(i)*48, 48, 16, 8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, now = dc.ReadObject(now, 0x100000+uint32(i%objects)*48, 48, 16, 8)
	}
}
