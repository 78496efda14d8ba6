// Package cache implements the software caches that Hera-JVM layers
// over a core's scratchpad local store: the data cache for objects and
// array blocks (§3.2.1 of the paper) and the code cache with its class
// table-of-contents (TOC) and per-class type information blocks (TIBs)
// (§3.2.2). The caches serve any core kind whose spec declares a local
// store — the Cell's SPEs and the GPU-like VPU alike.
package cache

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"herajvm/internal/cell"
	"herajvm/internal/isa"
	"herajvm/internal/mem"
)

// DataCacheConfig calibrates the software data cache.
type DataCacheConfig struct {
	// Size is the local-store region dedicated to cached data. The
	// paper's Figure 6 sweeps this from 104 KB downwards.
	Size uint32
	// ArrayBlock is the block size used when caching array elements:
	// "a block of up to 1KB of neighbouring elements is also
	// transferred" (§3.2.1).
	ArrayBlock uint32
	// MaxEntries bounds the local-memory-resident lookup hashtable; the
	// cache flushes when the table fills even if bytes remain.
	MaxEntries int
}

// The data cache's costs, in cycles: hashing an address and probing the
// lookup table (both in local store: "3-6 cycles" latency, §3.2.2);
// the miss handler's bookkeeping to install a new entry (eviction
// check, allocation, DMA issue); a local-store data access once an
// entry is cached.
const (
	dcProbeCycles  = 6
	dcInsertCycles = 40
	dcAccessCycles = 4
)

// MaxEntryBytes caps a single cached unit; larger objects degrade to
// window caching so one huge object cannot monopolise the cache. A data
// cache must hold one such unit (or one ArrayBlock, if larger).
const MaxEntryBytes = 8 << 10

// DefaultDataCacheConfig returns the paper's default: 104 KB of data
// cache with 1 KB array blocks.
func DefaultDataCacheConfig() DataCacheConfig {
	return DataCacheConfig{
		Size:       104 << 10,
		ArrayBlock: 1 << 10,
		MaxEntries: 4096,
	}
}

type dcEntry struct {
	mainAddr mem.Addr
	lsAddr   uint32
	size     uint32
	dirty    bool
}

// tabSlot is one open-addressing slot of the lookup table. gen stamps
// which flush generation wrote the slot, so invalidating the whole
// cache is a generation bump instead of a table clear; idx is the slab
// index of the entry, or -1 for a tombstone left by a retired entry.
type tabSlot struct {
	gen uint32
	idx int32
}

// DataCache is one local-store core's software object/array cache.
// Cached bytes live
// in the core's real local store; main memory remains the backing truth
// only after a flush, which is exactly the (lack of) coherence the paper
// describes and the Java Memory Model hooks rely on.
//
// The lookup structure is a host-side implementation detail tuned for
// the simulator's hot path (every SPE memory instruction probes it):
// entries live in an append-only slab reused across flushes, and an
// open-addressed, generation-stamped table maps main-memory addresses to
// slab indices. The table is sized by use: it starts at minTabSlots and
// doubles when half its slots carry the current generation's stamp, so
// a cache whose generations hold a few hundred entries never pays for
// the Size/16 a generation could hold. Simulated behaviour —
// probe/insert cycle charges, hit and miss counts, write-back order —
// is identical to a map-based implementation; only host time differs.
type DataCache struct {
	cfg  DataCacheConfig
	core *cell.Core
	base uint32 // region origin within the local store
	bump uint32

	slab    []dcEntry // entries of the current generation, in insertion order
	order   []int32   // live slab indices, insertion order, for write-back
	live    int       // live entries (len(order))
	tab     []tabSlot // open-addressed addr -> slab index; len is a power of two
	shift   uint32    // 32 - log2(len(tab)): home slot is the hash's high bits
	stamped int       // slots stamped with gen (live entries and tombstones)
	gen     uint32    // current flush generation
}

// minTabSlots is the lookup table's initial size (a power of two).
const minTabSlots = 64

// home returns addr's home slot: the high bits of the Fibonacci product.
// The low bits of addr*2654435761 are a function of addr's low bits
// alone, so masking them would send every 1 KB-strided array block to
// one slot of a small table.
func (d *DataCache) home(addr mem.Addr) uint32 {
	return (addr * 2654435761) >> d.shift
}

// dcLookup returns the slab index of addr's live entry, or -1.
func (d *DataCache) dcLookup(addr mem.Addr) int32 {
	mask := uint32(len(d.tab) - 1)
	for i := d.home(addr); ; i = (i + 1) & mask {
		s := d.tab[i]
		if s.gen != d.gen || s.idx == 0 {
			return -1
		}
		if s.idx > 0 && d.slab[s.idx-1].mainAddr == addr {
			return s.idx - 1
		}
		// tombstone or collision: keep probing
	}
}

// dcInsert installs a slab index for addr, reusing tombstones. A slot
// stamped for the first time this generation may tip the table past
// half full, which doubles it.
func (d *DataCache) dcInsert(addr mem.Addr, idx int32) {
	mask := uint32(len(d.tab) - 1)
	for i := d.home(addr); ; i = (i + 1) & mask {
		s := d.tab[i]
		if s.gen == d.gen && s.idx > 0 {
			continue
		}
		d.tab[i] = tabSlot{gen: d.gen, idx: idx + 1}
		if s.gen != d.gen {
			if d.stamped++; 2*d.stamped >= len(d.tab) {
				d.grow()
			}
		}
		return
	}
}

// grow doubles the table and re-inserts the live entries (tombstones
// are dropped). The fresh table's zero stamps never equal gen, which
// starts at 1, so the generation carries over.
func (d *DataCache) grow() {
	d.tab = make([]tabSlot, 2*len(d.tab))
	d.shift--
	d.stamped = 0
	for _, idx := range d.order {
		d.dcInsert(d.slab[idx].mainAddr, idx)
	}
}

// dcDelete tombstones addr's slot (the entry stays in the slab so the
// write-back order of surviving entries is untouched).
func (d *DataCache) dcDelete(addr mem.Addr) {
	mask := uint32(len(d.tab) - 1)
	for i := d.home(addr); ; i = (i + 1) & mask {
		s := d.tab[i]
		if s.gen != d.gen || s.idx == 0 {
			return
		}
		if s.idx > 0 && d.slab[s.idx-1].mainAddr == addr {
			d.tab[i] = tabSlot{gen: d.gen, idx: -1}
			return
		}
	}
}

// NewDataCache builds a data cache over core's local store, occupying
// [base, base+cfg.Size).
func NewDataCache(cfg DataCacheConfig, core *cell.Core, base uint32) *DataCache {
	// Internal invariants, unreachable because the VM builds caches only
	// on local-store cores, and vm.validate fits both caches in the local
	// store and checks ArrayBlock.
	if !core.Kind.UsesLocalStore() {
		panic("cache: data cache requires a local-store core")
	}
	if uint64(base)+uint64(cfg.Size) > uint64(len(core.LS)) {
		panic(fmt.Sprintf("cache: data cache [%#x,%#x) exceeds local store %#x",
			base, base+cfg.Size, len(core.LS)))
	}
	if cfg.ArrayBlock == 0 || cfg.ArrayBlock&(cfg.ArrayBlock-1) != 0 {
		panic("cache: array block size must be a power of two")
	}
	return &DataCache{
		cfg:   cfg,
		core:  core,
		base:  base,
		tab:   make([]tabSlot, minTabSlots),
		shift: 32 - uint32(bits.TrailingZeros32(minTabSlots)),
		gen:   1,
	}
}

// Config returns the cache's configuration.
func (d *DataCache) Config() DataCacheConfig { return d.cfg }

// Entries returns the number of live cache entries (for tests/reports).
func (d *DataCache) Entries() int { return d.live }

// UsedBytes returns the bump-allocated bytes.
func (d *DataCache) UsedBytes() uint32 { return d.bump }

// ensure returns the local-store address of the cached copy of
// [mainAddr, mainAddr+size) and its slab index, transferring it in on a
// miss. It advances and returns the core clock. The index lets write
// paths mark the entry dirty without a second lookup; it is only valid
// until the next ensure (a flush retires the slab generation).
func (d *DataCache) ensure(now cell.Clock, mainAddr mem.Addr, size uint32) (uint32, int32, cell.Clock) {
	d.core.Stats.Charge(isa.ClassLocalMem, dcProbeCycles)
	now += dcProbeCycles

	if idx := d.dcLookup(mainAddr); idx >= 0 {
		e := &d.slab[idx]
		if e.size >= size {
			d.core.Stats.DataHits++
			return e.lsAddr, idx, now
		}
		// A smaller unit is cached at this address (e.g. a header window
		// before the whole object was requested): retire it, writing back
		// dirty bytes so the fresh fill cannot lose them.
		if e.dirty {
			done := d.core.MFC.DMA(now, cell.DMAPut, e.mainAddr, e.lsAddr, e.size)
			d.core.Stats.DataWriteBacks++
			d.core.Stats.Charge(isa.ClassMainMem, done-now)
			now = done
		}
		d.dcDelete(mainAddr)
		d.live--
		for i, o := range d.order {
			if o == idx {
				d.order = append(d.order[:i], d.order[i+1:]...)
				break
			}
		}
	}
	d.core.Stats.DataMisses++

	// Allocate space; flush-and-retry when the cache or its table fills:
	// "a simple bump-pointer scheme ... with the cache simply being
	// flushed if it is filled" (§3.2.1).
	if size > d.cfg.Size {
		// Internal invariant, unreachable because vm.validate sizes the
		// cache for one unit and the adaptive controller never shrinks it
		// below one.
		panic(fmt.Sprintf("cache: unit of %d bytes exceeds data cache of %d", size, d.cfg.Size))
	}
	if d.bump+size > d.cfg.Size || d.live >= d.cfg.MaxEntries {
		now = d.flushAll(now, true)
		d.core.Stats.DataFlushes++
	}
	lsAddr := d.base + d.bump
	d.bump += (size + 15) &^ 15 // quadword-aligned allocation

	d.core.Stats.Charge(isa.ClassLocalMem, dcInsertCycles)
	now += dcInsertCycles

	done := d.core.MFC.DMA(now, cell.DMAGet, mainAddr, lsAddr, size)
	d.core.Stats.DMATransfers++
	d.core.Stats.DMABytes += uint64(size)
	d.core.Stats.DMAWait += done - now
	d.core.Stats.Charge(isa.ClassMainMem, done-now)
	now = done

	return lsAddr, d.install(mainAddr, lsAddr, size), now
}

// install appends a clean entry to the slab and the write-back order
// and indexes it, returning its slab index. The entry joins order
// before the table sees it: an insert that grows the table re-inserts
// exactly what order lists.
func (d *DataCache) install(mainAddr mem.Addr, lsAddr, size uint32) int32 {
	idx := int32(len(d.slab))
	d.slab = append(d.slab, dcEntry{mainAddr: mainAddr, lsAddr: lsAddr, size: size})
	d.order = append(d.order, idx)
	d.live++
	d.dcInsert(mainAddr, idx)
	return idx
}

// clip returns the cached unit covering an access of width bytes at
// offset off within the backing unit [unitAddr, unitAddr+unitSize).
// Units at most MaxEntryBytes are cached whole (whole-object caching);
// larger ones are cached as aligned array blocks (up to ArrayBlock
// bytes), the paper's array strategy.
func (d *DataCache) clip(unitAddr mem.Addr, unitSize, off, width uint32, block bool) (mem.Addr, uint32, uint32) {
	if !block && unitSize <= MaxEntryBytes {
		return unitAddr, unitSize, off
	}
	blk := d.cfg.ArrayBlock
	start := off &^ (blk - 1)
	end := start + blk
	if end > unitSize {
		end = unitSize
	}
	// A single element never straddles blocks for power-of-two widths,
	// but clamp defensively for odd layouts.
	if off+width > end {
		end = off + width
	}
	return unitAddr + start, end - start, off - start
}

// ReadObject reads width bytes at byte offset off inside the object
// whose header starts at objAddr and occupies objSize bytes, caching the
// whole object on first touch (§3.2.1's getfield behaviour).
func (d *DataCache) ReadObject(now cell.Clock, objAddr mem.Addr, objSize, off, width uint32) (uint64, cell.Clock) {
	addr, size, rel := d.clip(objAddr, objSize, off, width, false)
	ls, _, now := d.ensure(now, addr, size)
	d.core.Stats.Charge(isa.ClassLocalMem, dcAccessCycles)
	now += dcAccessCycles
	return readLS(d.core.LS, ls+rel, width), now
}

// WriteObject writes width bytes at offset off inside the object,
// caching it first and marking the entry dirty for write-back.
func (d *DataCache) WriteObject(now cell.Clock, objAddr mem.Addr, objSize, off, width uint32, val uint64) cell.Clock {
	addr, size, rel := d.clip(objAddr, objSize, off, width, false)
	ls, idx, now := d.ensure(now, addr, size)
	d.core.Stats.Charge(isa.ClassLocalMem, dcAccessCycles)
	now += dcAccessCycles
	writeLS(d.core.LS, ls+rel, width, val)
	d.slab[idx].dirty = true
	return now
}

// AccessArray is one local-store aload (store false) or astore of the
// element of width bytes at index idx of the array whose header starts
// at arr: it reads the length word through the cache (the header unit
// cached whole, as ReadObject would), and when idx is in bounds reads
// or writes the element through the block of up to ArrayBlock
// neighbouring elements, marking that block dirty on a store. It
// returns the loaded element, the array's length, whether idx was in
// bounds (a trap follows the header read, which is charged either way)
// and the advanced clock.
func (d *DataCache) AccessArray(now cell.Clock, arr mem.Addr, idx int32, width uint32, store bool, val uint64) (uint64, uint32, bool, cell.Clock) {
	hdr, _, now := d.ensure(now, arr, isa.HeaderBytes)
	d.core.Stats.Charge(isa.ClassLocalMem, dcAccessCycles)
	now += dcAccessCycles
	n := binary.LittleEndian.Uint32(d.core.LS[hdr+isa.HeaderLengthOff:])
	if idx < 0 || uint32(idx) >= n {
		return 0, n, false, now
	}
	addr, size, rel := d.clip(arr+isa.HeaderBytes, n*width, uint32(idx)*width, width, true)
	ls, e, now := d.ensure(now, addr, size)
	d.core.Stats.Charge(isa.ClassLocalMem, dcAccessCycles)
	now += dcAccessCycles
	if store {
		writeLS(d.core.LS, ls+rel, width, val)
		d.slab[e].dirty = true
		return 0, n, true, now
	}
	return readLS(d.core.LS, ls+rel, width), n, true, now
}

// StageArray prefetches an array data section [dataAddr,
// dataAddr+dataSize) into the cache as the same ArrayBlock-aligned
// tiles a demand miss would fill, up to maxBytes of newly staged data
// — the double-buffered DMA staging a kernel worker performs before
// computing its chunk. The timing models a double buffer: the worker
// blocks for the first missing tile's full DMA round trip (nothing to
// overlap it with), and every later tile is prefetched while the
// previous one computes, so the worker's clock advances only by the
// probe/insert bookkeeping while the payload still occupies the EIB at
// issue time (concurrent workers contend for the bus for real, and
// every staged byte is billed to DMATransfers/DMABytes/DataStaged).
// Staging never evicts: it stops before the cache or its lookup table
// would flush, leaving the rest to ordinary demand misses. It returns
// the advanced clock and the bytes staged.
func (d *DataCache) StageArray(now cell.Clock, dataAddr mem.Addr, dataSize, maxBytes uint32) (cell.Clock, uint32) {
	blk := d.cfg.ArrayBlock
	var staged uint32
	first := true
	for start := uint32(0); start < dataSize; start += blk {
		size := blk
		if dataSize-start < size {
			size = dataSize - start
		}
		if staged+size > maxBytes {
			break
		}
		d.core.Stats.Charge(isa.ClassLocalMem, dcProbeCycles)
		now += dcProbeCycles
		if d.dcLookup(dataAddr+start) >= 0 {
			continue // already resident (e.g. staged for a previous launch)
		}
		if d.bump+size > d.cfg.Size || d.live >= d.cfg.MaxEntries {
			break // never flush on a prefetch path
		}
		lsAddr := d.base + d.bump
		d.bump += (size + 15) &^ 15
		d.core.Stats.Charge(isa.ClassLocalMem, dcInsertCycles)
		now += dcInsertCycles

		done := d.core.MFC.DMA(now, cell.DMAGet, dataAddr+start, lsAddr, size)
		d.core.Stats.DMATransfers++
		d.core.Stats.DMABytes += uint64(size)
		d.core.Stats.DataStaged += uint64(size)
		if first {
			// The leading tile is the synchronous fill of the double
			// buffer; the worker stalls until it lands.
			d.core.Stats.DMAWait += done - now
			d.core.Stats.Charge(isa.ClassMainMem, done-now)
			now = done
			first = false
		}

		d.install(dataAddr+start, lsAddr, size)
		staged += size
	}
	return now, staged
}

// flushAll writes back every dirty entry (in insertion order, which the
// order slice preserves across retirements) and, when invalidate is set,
// drops all entries and resets the bump pointer. Invalidation bumps the
// table generation instead of clearing the table, so a flush costs the
// write-backs alone.
func (d *DataCache) flushAll(now cell.Clock, invalidate bool) cell.Clock {
	for _, idx := range d.order {
		e := &d.slab[idx]
		if !e.dirty {
			continue
		}
		done := d.core.MFC.DMA(now, cell.DMAPut, e.mainAddr, e.lsAddr, e.size)
		d.core.Stats.DMATransfers++
		d.core.Stats.DMABytes += uint64(e.size)
		d.core.Stats.DMAWait += done - now
		d.core.Stats.Charge(isa.ClassMainMem, done-now)
		d.core.Stats.DataWriteBacks++
		now = done
		e.dirty = false
	}
	if invalidate {
		d.slab = d.slab[:0]
		d.order = d.order[:0]
		d.live = 0
		d.bump = 0
		d.stamped = 0
		d.gen++
		if d.gen == 0 { // generation wrapped: stale stamps could alias
			clear(d.tab)
			d.gen = 1
		}
	}
	return now
}

// Flush writes back all dirty entries but keeps them cached. Hera-JVM
// performs this before an unlock or volatile write so other cores
// observe this thread's writes (release semantics, §3.2.1).
func (d *DataCache) Flush(now cell.Clock) cell.Clock {
	return d.flushAll(now, false)
}

// Purge writes back dirty data and invalidates the whole cache.
// Hera-JVM performs this before a lock acquire or volatile read so this
// core observes other cores' writes (acquire semantics, §3.2.1). Dirty
// data is written back first: purging at a nested acquire must not lose
// this thread's own unsynchronised writes.
func (d *DataCache) Purge(now cell.Clock) cell.Clock {
	d.core.Stats.DataPurges++
	return d.flushAll(now, true)
}

func readLS(ls []byte, addr, width uint32) uint64 {
	switch width {
	case 1:
		return uint64(ls[addr])
	case 2:
		return uint64(binary.LittleEndian.Uint16(ls[addr:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(ls[addr:]))
	case 8:
		return binary.LittleEndian.Uint64(ls[addr:])
	default:
		// Internal invariant, unreachable because accesses are of a
		// 1-, 2-, 4- or 8-byte field or element.
		panic(fmt.Sprintf("cache: bad access width %d", width))
	}
}

func writeLS(ls []byte, addr, width uint32, v uint64) {
	switch width {
	case 1:
		ls[addr] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(ls[addr:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(ls[addr:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(ls[addr:], v)
	default:
		// Internal invariant, unreachable because accesses are of a
		// 1-, 2-, 4- or 8-byte field or element.
		panic(fmt.Sprintf("cache: bad access width %d", width))
	}
}
