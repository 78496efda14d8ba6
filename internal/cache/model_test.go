package cache

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/isa"
	"herajvm/internal/mem"
)

// refCache is the reference the DataCache is tested against: the same
// cache behaviour — clip, probe/insert/access charges, flush-on-fill,
// retirement of a smaller unit cached at the same address, staging,
// write-back in insertion order — with a Go map from address to entry
// and nothing to size, grow, stamp or tombstone. It shares no code with
// datacache.go but the local-store byte accessors.
type refCache struct {
	cfg   DataCacheConfig
	core  *cell.Core
	bump  uint32
	index map[mem.Addr]*refEntry
	order []*refEntry // insertion order, for write-back
}

type refEntry struct {
	mainAddr mem.Addr
	lsAddr   uint32
	size     uint32
	dirty    bool
}

func newRefCache(cfg DataCacheConfig, core *cell.Core) *refCache {
	return &refCache{cfg: cfg, core: core, index: make(map[mem.Addr]*refEntry)}
}

func (r *refCache) charge(class isa.OpClass, n uint32, now cell.Clock) cell.Clock {
	r.core.Stats.Charge(class, uint64(n))
	return now + cell.Clock(n)
}

// get fetches [addr, addr+size) into a freshly bump-allocated slot and
// indexes it. wait says whether the caller stalls for the transfer.
func (r *refCache) get(now cell.Clock, addr mem.Addr, size uint32, wait bool) (*refEntry, cell.Clock) {
	e := &refEntry{mainAddr: addr, lsAddr: r.bump, size: size}
	r.bump += (size + 15) &^ 15
	now = r.charge(isa.ClassLocalMem, dcInsertCycles, now)
	done := r.core.MFC.DMA(now, cell.DMAGet, addr, e.lsAddr, size)
	r.core.Stats.DMATransfers++
	r.core.Stats.DMABytes += uint64(size)
	if wait {
		r.core.Stats.DMAWait += done - now
		r.core.Stats.Charge(isa.ClassMainMem, done-now)
		now = done
	}
	r.index[addr] = e
	r.order = append(r.order, e)
	return e, now
}

func (r *refCache) full(size uint32) bool {
	return r.bump+size > r.cfg.Size || len(r.order) >= r.cfg.MaxEntries
}

func (r *refCache) ensure(now cell.Clock, addr mem.Addr, size uint32) (*refEntry, cell.Clock) {
	now = r.charge(isa.ClassLocalMem, dcProbeCycles, now)
	if e := r.index[addr]; e != nil {
		if e.size >= size {
			r.core.Stats.DataHits++
			return e, now
		}
		if e.dirty {
			done := r.core.MFC.DMA(now, cell.DMAPut, e.mainAddr, e.lsAddr, e.size)
			r.core.Stats.DataWriteBacks++
			r.core.Stats.Charge(isa.ClassMainMem, done-now)
			now = done
		}
		delete(r.index, addr)
		for i, o := range r.order {
			if o == e {
				r.order = append(r.order[:i], r.order[i+1:]...)
				break
			}
		}
	}
	r.core.Stats.DataMisses++
	if r.full(size) {
		now = r.writeBack(now, true)
		r.core.Stats.DataFlushes++
	}
	return r.get(now, addr, size, true)
}

func (r *refCache) clip(unitAddr mem.Addr, unitSize, off, width uint32, block bool) (mem.Addr, uint32, uint32) {
	if !block && unitSize <= MaxEntryBytes {
		return unitAddr, unitSize, off
	}
	start := off / r.cfg.ArrayBlock * r.cfg.ArrayBlock
	end := min(start+r.cfg.ArrayBlock, unitSize)
	end = max(end, off+width)
	return unitAddr + start, end - start, off - start
}

func (r *refCache) access(now cell.Clock, unitAddr mem.Addr, unitSize, off, width uint32, block, write bool, val uint64) (uint64, cell.Clock) {
	addr, size, rel := r.clip(unitAddr, unitSize, off, width, block)
	e, now := r.ensure(now, addr, size)
	now = r.charge(isa.ClassLocalMem, dcAccessCycles, now)
	if write {
		writeLS(r.core.LS, e.lsAddr+rel, width, val)
		e.dirty = true
		return 0, now
	}
	return readLS(r.core.LS, e.lsAddr+rel, width), now
}

// element is a fused array access as two accesses: the length word
// through the header unit, then — when idx is in bounds — the element
// through its block.
func (r *refCache) element(now cell.Clock, arr mem.Addr, idx int32, width uint32, store bool, val uint64) (uint64, uint32, bool, cell.Clock) {
	n, now := r.access(now, arr, isa.HeaderBytes, isa.HeaderLengthOff, 4, false, false, 0)
	if idx < 0 || uint32(idx) >= uint32(n) {
		return 0, uint32(n), false, now
	}
	v, now := r.access(now, arr+isa.HeaderBytes, uint32(n)*width, uint32(idx)*width, width, true, store, val)
	return v, uint32(n), true, now
}

func (r *refCache) stage(now cell.Clock, dataAddr mem.Addr, dataSize, maxBytes uint32) (cell.Clock, uint32) {
	var staged uint32
	for start := uint32(0); start < dataSize; start += r.cfg.ArrayBlock {
		size := min(r.cfg.ArrayBlock, dataSize-start)
		if staged+size > maxBytes {
			break
		}
		now = r.charge(isa.ClassLocalMem, dcProbeCycles, now)
		if r.index[dataAddr+start] != nil {
			continue
		}
		if r.full(size) {
			break
		}
		_, now = r.get(now, dataAddr+start, size, staged == 0)
		r.core.Stats.DataStaged += uint64(size)
		staged += size
	}
	return now, staged
}

func (r *refCache) writeBack(now cell.Clock, invalidate bool) cell.Clock {
	for _, e := range r.order {
		if !e.dirty {
			continue
		}
		done := r.core.MFC.DMA(now, cell.DMAPut, e.mainAddr, e.lsAddr, e.size)
		r.core.Stats.DMATransfers++
		r.core.Stats.DMABytes += uint64(e.size)
		r.core.Stats.DMAWait += done - now
		r.core.Stats.Charge(isa.ClassMainMem, done-now)
		r.core.Stats.DataWriteBacks++
		now = done
		e.dirty = false
	}
	if invalidate {
		clear(r.index)
		r.order = r.order[:0]
		r.bump = 0
	}
	return now
}

func (r *refCache) purge(now cell.Clock) cell.Clock {
	r.core.Stats.DataPurges++
	return r.writeBack(now, true)
}

// The operations of the model test and the fuzz target.
const (
	opReadObject = iota
	opWriteObject
	opLoadElem
	opStoreElem
	opStage
	opFlush
	opPurge
	numOps
)

// The model's address universe: every unit starts on one of
// modelUnits 16-byte-aligned addresses from modelBase and has one of
// unitSizes bytes, so the same address is requested under different
// sizes (a cached unit that is too small retires) and units overlap
// (two dirty copies of one byte: the later write-back wins, so main
// memory shows the write-back order).
const (
	modelBase  = 0x1000
	modelUnits = 4096
)

var unitSizes = [...]uint32{16, 48, 208, 1024, 3000, 9000, 40000}

const modelEnd = modelBase + modelUnits*16 + 40000

// The element ops' arrays sit past the units, out of reach of the
// object ops, so their length words hold: array k's header is at
// modelArrays + k*arrayStride and it has arrayLens[k] elements of any
// width up to 8 bytes.
const (
	modelArrays = 0x20000
	arrayStride = 0x10000
)

var arrayLens = [...]uint32{1, 3, 40, 200, 1000, 6000}

const arraysEnd = modelArrays + len(arrayLens)*arrayStride

// cacheModel drives a DataCache and a refCache, each on a machine of
// its own, through the same operations.
type cacheModel struct {
	t          testing.TB
	dm, rm     *cell.Machine
	dc         *DataCache
	ref        *refCache
	dnow, rnow cell.Clock

	gens, grows, maxTab int // generations ended, table doublings, largest table
}

func newCacheModel(t testing.TB, cfg DataCacheConfig) *cacheModel {
	x := &cacheModel{t: t}
	var dcore, rcore *cell.Core
	x.dm, dcore = newSPE(t)
	x.rm, rcore = newSPE(t)
	pattern := make([]byte, arraysEnd-modelBase)
	for i := range pattern {
		pattern[i] = byte(i*7 + i>>8)
	}
	for k, n := range arrayLens {
		binary.LittleEndian.PutUint32(pattern[modelArrays-modelBase+k*arrayStride+isa.HeaderLengthOff:], n)
	}
	x.dm.Mem.WriteBytes(modelBase, pattern)
	x.rm.Mem.WriteBytes(modelBase, pattern)
	x.dc = NewDataCache(cfg, dcore, 0)
	x.ref = newRefCache(cfg, rcore)
	x.maxTab = len(x.dc.tab)
	return x
}

// apply runs one operation on both caches and compares everything the
// simulation can see of them.
func (x *cacheModel) apply(op int, unit, sizeClass, off, width uint32, val uint64) {
	x.t.Helper()
	addr := mem.Addr(modelBase + unit%modelUnits*16)
	size := unitSizes[sizeClass%uint32(len(unitSizes))]
	rawOff := off
	off = off % size &^ (width - 1)
	if off+width > size {
		off = 0
	}
	gen, tab := x.dc.gen, len(x.dc.tab)
	var dv, rv uint64
	switch op {
	case opReadObject:
		dv, x.dnow = x.dc.ReadObject(x.dnow, addr, size, off, width)
		rv, x.rnow = x.ref.access(x.rnow, addr, size, off, width, false, false, 0)
	case opWriteObject:
		x.dnow = x.dc.WriteObject(x.dnow, addr, size, off, width, val)
		_, x.rnow = x.ref.access(x.rnow, addr, size, off, width, false, true, val)
	case opLoadElem, opStoreElem:
		// unit picks the array; off an index from two below it to two
		// past its end, so some accesses trap after the length read.
		k := unit % uint32(len(arrayLens))
		addr = mem.Addr(modelArrays + k*arrayStride)
		idx := int32(rawOff%(arrayLens[k]+4)) - 2
		var dn, rn uint32
		var dok, rok bool
		dv, dn, dok, x.dnow = x.dc.AccessArray(x.dnow, addr, idx, width, op == opStoreElem, val)
		rv, rn, rok, x.rnow = x.ref.element(x.rnow, addr, idx, width, op == opStoreElem, val)
		if dn != rn || dok != rok {
			x.t.Fatalf("op %d at %#x index %d: length %d in bounds %v, reference %d %v", op, addr, idx, dn, dok, rn, rok)
		}
	case opStage:
		var ds, rs uint32
		x.dnow, ds = x.dc.StageArray(x.dnow, addr, size, uint32(val))
		x.rnow, rs = x.ref.stage(x.rnow, addr, size, uint32(val))
		dv, rv = uint64(ds), uint64(rs)
	case opFlush:
		x.dnow = x.dc.Flush(x.dnow)
		x.rnow = x.ref.writeBack(x.rnow, false)
	case opPurge:
		x.dnow = x.dc.Purge(x.dnow)
		x.rnow = x.ref.purge(x.rnow)
	}
	if x.dc.gen != gen {
		x.gens++
	}
	if n := len(x.dc.tab); n != tab {
		x.grows++
		x.maxTab = max(x.maxTab, n)
	}
	if dv != rv {
		x.t.Fatalf("op %d at %#x size %d off %d width %d: got %#x, reference %#x", op, addr, size, off, width, dv, rv)
	}
	if x.dnow != x.rnow {
		x.t.Fatalf("op %d at %#x size %d: clock %d, reference %d", op, addr, size, x.dnow, x.rnow)
	}
	if d, r := x.dc.core.Stats, x.ref.core.Stats; d != r {
		x.t.Fatalf("op %d at %#x size %d: stats\n%+v\nreference\n%+v", op, addr, size, d, r)
	}
	if d, r := x.dc.core.MFC, x.ref.core.MFC; d.Transfers != r.Transfers || d.Bytes != r.Bytes {
		x.t.Fatalf("op %d: MFC %d transfers %d bytes, reference %d/%d", op, d.Transfers, d.Bytes, r.Transfers, r.Bytes)
	}
	if x.dc.Entries() != len(x.ref.order) || x.dc.UsedBytes() != x.ref.bump {
		x.t.Fatalf("op %d: %d entries %d bytes, reference %d/%d", op,
			x.dc.Entries(), x.dc.UsedBytes(), len(x.ref.order), x.ref.bump)
	}
	if op == opFlush || op == opPurge {
		x.compareMain()
	}
}

// compareMain checks main memory after a write-back: overlapping dirty
// units land in insertion order on both sides or the bytes differ.
func (x *cacheModel) compareMain() {
	x.t.Helper()
	d := make([]byte, arraysEnd-modelBase)
	r := make([]byte, arraysEnd-modelBase)
	x.dm.Mem.ReadBytes(modelBase, d)
	x.rm.Mem.ReadBytes(modelBase, r)
	if !bytes.Equal(d, r) {
		x.t.Fatal("main memory differs from the reference after a write-back")
	}
}

// TestDataCacheVsModel runs a seeded operation mix against the map
// reference from just below the generation counter's wrap: phases of
// many distinct small units (the table must double, repeatedly, within
// one generation), of overlapping and re-sized units (retirement,
// write-back order), of array elements and large units (length reads
// in and out of bounds, block clipping, staging, flush-on-fill), each
// ended by a purge.
func TestDataCacheVsModel(t *testing.T) {
	x := newCacheModel(t, DefaultDataCacheConfig())
	x.dc.gen = math.MaxUint32 - 4 // the wrap falls inside the run
	rng := rand.New(rand.NewSource(17))
	for phase := 0; phase < 16; phase++ {
		for i := 0; i < 1500; i++ {
			unit, class := rng.Uint32(), rng.Uint32()
			op := int(rng.Uint32() % opFlush) // purges end phases; flushes are rare below
			switch phase % 4 {
			case 0: // distinct small objects: growth
				class, op = class%2, op%2
			case 1: // few addresses, every size: retirement and overlap
				unit %= 24
			case 2: // arrays and staging
				class = 3 + class%4
				op = opLoadElem + op%3
			}
			if rng.Uint32()%200 == 0 {
				op = opFlush
			}
			x.apply(op, unit, class, rng.Uint32(), 1<<(rng.Uint32()%4), uint64(rng.Uint32()))
		}
		x.apply(opPurge, 0, 0, 0, 1, 0)
	}
	x.compareMain()
	if x.grows < 3 || x.gens < 10 {
		t.Fatalf("%d table doublings over %d generations; the run must cover >= 3 and >= 10", x.grows, x.gens)
	}
	if x.dc.gen > 1000 {
		t.Fatalf("generation counter at %d: it never wrapped", x.dc.gen)
	}
	s := x.dc.core.Stats
	if s.DataFlushes == 0 || s.DataWriteBacks == 0 || s.DataStaged == 0 || s.DataHits == 0 {
		t.Fatalf("the run missed a path: %+v", s)
	}
	t.Logf("%d doublings (largest table %d slots), %d generations, %d hits, %d misses, %d flushes-on-fill",
		x.grows, x.maxTab, x.gens, s.DataHits, s.DataMisses, s.DataFlushes)
}

// TestDataCacheRetiresHeaderWindow pins the one path that tombstones:
// a unit cached under a smaller size is written back and replaced when
// the whole object is requested, the tombstone is probed through, and a
// later insert reuses it.
func TestDataCacheRetiresHeaderWindow(t *testing.T) {
	x := newCacheModel(t, DefaultDataCacheConfig())
	x.apply(opWriteObject, 5, 0, 4, 4, 0xaaaa) // 16-byte window at unit 5, dirty
	x.apply(opReadObject, 6, 0, 0, 4, 0)
	x.apply(opWriteObject, 5, 2, 8, 4, 0xbbbb) // the 208-byte object: retires the window
	if wb := x.dc.core.Stats.DataWriteBacks; wb != 1 {
		t.Fatalf("retiring a dirty window wrote back %d entries, want 1", wb)
	}
	x.apply(opReadObject, 5, 2, 4, 4, 0) // the window's write survived the refill
	x.apply(opReadObject, 5, 0, 4, 4, 0) // and the small request now hits the object
	x.apply(opReadObject, 6, 0, 0, 4, 0)
	x.apply(opFlush, 0, 0, 0, 1, 0)
	if got := x.dm.Mem.Read32(modelBase + 5*16 + 4); got != 0xaaaa {
		t.Fatalf("main memory holds %#x at the window's field, want 0xaaaa", got)
	}
}

// twoAccesses is an array element access as two cache accesses, the
// sequence AccessArray fuses: the length word through ReadObject, then,
// in bounds, the element through its block.
func twoAccesses(d *DataCache, now cell.Clock, arr mem.Addr, idx int32, width uint32, store bool, val uint64) (uint64, uint32, bool, cell.Clock) {
	n, now := d.ReadObject(now, arr, isa.HeaderBytes, isa.HeaderLengthOff, 4)
	if idx < 0 || uint32(idx) >= uint32(n) {
		return 0, uint32(n), false, now
	}
	addr, size, rel := d.clip(arr+isa.HeaderBytes, uint32(n)*width, uint32(idx)*width, width, true)
	ls, e, now := d.ensure(now, addr, size)
	d.core.Stats.Charge(isa.ClassLocalMem, dcAccessCycles)
	now += dcAccessCycles
	if store {
		writeLS(d.core.LS, ls+rel, width, val)
		d.slab[e].dirty = true
		return 0, uint32(n), true, now
	}
	return readLS(d.core.LS, ls+rel, width), uint32(n), true, now
}

// TestAccessArrayMatchesTwoAccesses runs the same script on two 8 KB
// caches, one making each element access with AccessArray and the other
// as twoAccesses, and after every step compares what either shows:
// result, length, bounds verdict, clock, every core counter, the local
// store's bytes and the cache's entries and bytes — and main memory
// after the closing flush. The script covers cold and warm accesses,
// both bounds traps, and a cache fill that flushes at the header and
// one that flushes at the element.
func TestAccessArrayMatchesTwoAccesses(t *testing.T) {
	type side struct {
		m   *cell.Machine
		dc  *DataCache
		now cell.Clock
	}
	var sides [2]side
	for i := range sides {
		m, dc := newDC(t, 8<<10)
		for k := mem.Addr(0); k < 4; k++ {
			newArray(m, 0x40000+k*0x2000, 1000)
			for e := mem.Addr(0); e < 1000; e++ {
				m.Mem.Write32(0x40000+k*0x2000+isa.HeaderBytes+4*e, uint32(k<<16)|uint32(e))
			}
		}
		sides[i] = side{m: m, dc: dc}
	}
	step := func(what string, f func(s *side, fused bool) (uint64, uint32, bool)) {
		t.Helper()
		var got [2][3]uint64
		for i := range sides {
			v, n, ok := f(&sides[i], i == 0)
			got[i] = [3]uint64{v, uint64(n), map[bool]uint64{true: 1}[ok]}
		}
		a, b := &sides[0], &sides[1]
		switch {
		case got[0] != got[1]:
			t.Fatalf("%s: fused (value, length, in bounds) %v, two accesses %v", what, got[0], got[1])
		case a.now != b.now:
			t.Fatalf("%s: clock %d, two accesses %d", what, a.now, b.now)
		case a.dc.core.Stats != b.dc.core.Stats:
			t.Fatalf("%s: counters\n%+v\ntwo accesses\n%+v", what, a.dc.core.Stats, b.dc.core.Stats)
		case !bytes.Equal(a.dc.core.LS, b.dc.core.LS):
			t.Fatalf("%s: local store differs", what)
		case a.dc.Entries() != b.dc.Entries() || a.dc.UsedBytes() != b.dc.UsedBytes():
			t.Fatalf("%s: %d entries %d bytes, two accesses %d/%d", what,
				a.dc.Entries(), a.dc.UsedBytes(), b.dc.Entries(), b.dc.UsedBytes())
		}
	}
	elem := func(arr mem.Addr, idx int32, store bool, val uint64) func(*side, bool) (uint64, uint32, bool) {
		return func(s *side, fused bool) (v uint64, n uint32, ok bool) {
			if fused {
				v, n, ok, s.now = s.dc.AccessArray(s.now, arr, idx, 4, store, val)
			} else {
				v, n, ok, s.now = twoAccesses(s.dc, s.now, arr, idx, 4, store, val)
			}
			return v, n, ok
		}
	}
	// fill purges the cache and dirties objects of up to 1 KB until it
	// holds exactly used bytes.
	fill := func(used uint32) func(*side, bool) (uint64, uint32, bool) {
		return func(s *side, _ bool) (uint64, uint32, bool) {
			s.now = s.dc.Purge(s.now)
			for a := mem.Addr(0x10000); s.dc.UsedBytes() < used; a += 1024 {
				s.now = s.dc.WriteObject(s.now, a, min(1024, used-s.dc.UsedBytes()), 8, 8, uint64(a))
			}
			return 0, 0, true
		}
	}
	flushes := func() uint64 { return sides[0].dc.core.Stats.DataFlushes }

	step("cold load", elem(0x40000, 3, false, 0))
	step("warm load", elem(0x40000, 200, false, 0))
	step("store", elem(0x40000, 201, true, 0xfeed))
	step("load of the store", elem(0x40000, 201, false, 0))
	step("next block", elem(0x40000, 900, false, 0))
	step("index past the end", elem(0x40000, 1000, false, 0))
	step("negative index", elem(0x40000, -1, true, 7))

	step("fill to the brim", fill(8<<10))
	f0 := flushes()
	step("header fill flushes", elem(0x42000, 5, true, 0xbeef))
	if flushes() != f0+1 || sides[0].dc.Entries() != 2 {
		t.Fatalf("the header's fill must flush once and leave header and block: %d flushes, %d entries",
			flushes()-f0, sides[0].dc.Entries())
	}
	step("fill to a header short", fill(8<<10-isa.HeaderBytes))
	f0 = flushes()
	step("element fill flushes", elem(0x44000, 600, true, 0xcafe))
	if flushes() != f0+1 || sides[0].dc.Entries() != 1 {
		t.Fatalf("the element's fill must flush once and leave the block: %d flushes, %d entries",
			flushes()-f0, sides[0].dc.Entries())
	}
	step("fill to the brim again", fill(8<<10))
	step("header fill flushes, then traps", elem(0x46000, 1000, false, 0))
	step("flush", func(s *side, _ bool) (uint64, uint32, bool) {
		s.now = s.dc.Flush(s.now)
		return 0, 0, true
	})
	a, b := make([]byte, 0x10000), make([]byte, 0x10000)
	for base := mem.Addr(0x10000); base < 0x50000; base += 0x10000 {
		sides[0].m.Mem.ReadBytes(base, a)
		sides[1].m.Mem.ReadBytes(base, b)
		if !bytes.Equal(a, b) {
			t.Fatalf("main memory from %#x differs after the flush", base)
		}
	}
	if got := sides[0].m.Mem.Read32(0x44000 + isa.HeaderBytes + 4*600); got != 0xcafe {
		t.Fatalf("the last store left %#x in main memory, want 0xcafe", got)
	}
}

// probes counts the slots a lookup of addr inspects.
func probes(d *DataCache, addr mem.Addr) int {
	mask := uint32(len(d.tab) - 1)
	n := 1
	for i := d.home(addr); ; i = (i + 1) & mask {
		s := d.tab[i]
		if s.gen != d.gen || s.idx == 0 || (s.idx > 0 && d.slab[s.idx-1].mainAddr == addr) {
			return n
		}
		n++
	}
}

// TestDataCacheProbeLength pins the hash against strided addresses: a
// table this small must not send regularly spaced units to one home
// slot (masking the Fibonacci product's low bits does exactly that for
// any stride that is a multiple of the table size).
func TestDataCacheProbeLength(t *testing.T) {
	for _, tc := range []struct {
		name   string
		base   mem.Addr
		stride uint32
		n      int
	}{
		{"array blocks, 1 KB stride", 0x20000, 1024, 128},
		{"small objects, 16 B stride", 0x20000, 16, 500},
		{"objects, 4 KB stride", 0x4000, 4096, 60},
		{"array blocks off an odd base", 0x20010 + 48, 1024, 128},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, dc := newDC(t, 192<<10)
			var now cell.Clock
			for i := 0; i < tc.n; i++ {
				// The hash sees only the unit's address: an object of
				// min(stride, 1 KB) there stands for an array block too.
				_, now = dc.ReadObject(now, tc.base+mem.Addr(i)*tc.stride, min(tc.stride, 1024), 0, 4)
			}
			if dc.Entries() != tc.n {
				t.Fatalf("%d entries, want %d (the case must fit one generation)", dc.Entries(), tc.n)
			}
			total := 0
			for i := 0; i < tc.n; i++ {
				total += probes(dc, tc.base+mem.Addr(i)*tc.stride)
			}
			if avg := float64(total) / float64(tc.n); avg >= 2 {
				t.Errorf("%d units in %d slots: %.2f probes per lookup, want < 2", tc.n, len(dc.tab), avg)
			}
		})
	}
}

// FuzzDataCacheVsModel decodes its input as 12-byte operations —
// opcode, size class, unit, offset, width, value — and applies each to
// a DataCache and the map reference. The cache is small (8 KB, 96
// entries) so short inputs reach flush-on-fill, and starts two
// generations from the counter's wrap. An opcode byte with the high bit
// set is a burst of that many distinct small units, which is what grows
// the table. The seed corpus is testdata/fuzz/FuzzDataCacheVsModel.
func FuzzDataCacheVsModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := DefaultDataCacheConfig()
		cfg.Size, cfg.MaxEntries = 8<<10, 96
		x := newCacheModel(t, cfg)
		x.dc.gen = math.MaxUint32 - 1
		for ; len(data) >= 12; data = data[12:] {
			unit := uint32(binary.LittleEndian.Uint16(data[2:]))
			off := uint32(binary.LittleEndian.Uint16(data[4:]))
			width := uint32(1) << (data[6] % 4)
			val := uint64(binary.LittleEndian.Uint32(data[8:]))
			if data[0]&0x80 != 0 {
				for i := uint32(0); i < uint32(data[0]&0x7f); i++ {
					x.apply(opReadObject+int(i&1), unit+i, 0, off, width, val+uint64(i))
				}
				continue
			}
			x.apply(int(data[0])%numOps, unit, uint32(data[1]), off, width, val)
		}
		x.apply(opFlush, 0, 0, 0, 1, 0)
	})
}
