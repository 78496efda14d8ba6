package cache

import (
	"fmt"

	"herajvm/internal/cell"
	"herajvm/internal/isa"
	"herajvm/internal/mem"
)

// CodeCacheConfig calibrates the SPE software code cache (§3.2.2).
type CodeCacheConfig struct {
	// Size is the local-store region holding cached method code and
	// TIBs. Figure 7 sweeps this from 88 KB downwards.
	Size uint32
}

// DefaultCodeCacheConfig returns the paper's default: 88 KB.
func DefaultCodeCacheConfig() CodeCacheConfig {
	return CodeCacheConfig{Size: 88 << 10}
}

// The code cache's costs, in cycles: reading the resident class
// table-of-contents entry (local store, "3-6 cycles"); the TIB
// method-entry read once cached; the bookkeeping to install a TIB or
// method; the re-lookup performed when returning into a caller ("this
// process is repeated on returning from a method").
const (
	tocCycles      = 4
	tibCycles      = 6
	ccInsertCycles = 10
	returnCycles   = 8
)

// CodeCache is one local-store core's software code cache. Method code
// and TIBs are
// cached whole with bump-pointer allocation; the cache is completely
// purged when full. Lookup follows the paper's Figure 3 path: the
// permanently resident 2 KB TOC maps a class ID to its TIB; the (cached)
// TIB maps a method to its code; both pointers live in low-latency local
// memory on the hit path.
//
// The cache models occupancy and traffic, not contents: the executor
// runs the JIT's compiled form, so nothing reads cached code or TIB
// bytes back. A fill is billed as the DMA it would be (MFC.CostOnly)
// and copies nothing, which leaves the code-cache region of the local
// store without host backing.
type CodeCache struct {
	cfg  CodeCacheConfig
	core *cell.Core
	bump uint32

	tibs    map[int]struct{} // class IDs whose TIB is cached
	methods map[int]struct{} // method IDs whose code is cached
}

// NewCodeCache builds a code cache over core's local store at
// [base, base+cfg.Size).
func NewCodeCache(cfg CodeCacheConfig, core *cell.Core, base uint32) *CodeCache {
	// Internal invariants, unreachable because the VM builds caches only
	// on local-store cores, and vm.validate fits both caches in the local
	// store.
	if !core.Kind.UsesLocalStore() {
		panic("cache: code cache requires a local-store core")
	}
	if ls := core.MFC.LocalStoreSize(); uint64(base)+uint64(cfg.Size) > uint64(ls) {
		panic(fmt.Sprintf("cache: code cache [%#x,%#x) exceeds local store %#x",
			base, base+cfg.Size, ls))
	}
	return &CodeCache{
		cfg:     cfg,
		core:    core,
		tibs:    make(map[int]struct{}),
		methods: make(map[int]struct{}),
	}
}

// Config returns the cache configuration.
func (c *CodeCache) Config() CodeCacheConfig { return c.cfg }

// purge drops everything (code is never dirty, so nothing writes back).
func (c *CodeCache) purge() {
	clear(c.tibs)
	clear(c.methods)
	c.bump = 0
	c.core.Stats.CodePurges++
}

// alloc bump-allocates size bytes, purging the whole cache when full.
// It returns false when size can never fit (larger than the cache);
// callers then run the transfer uncached.
func (c *CodeCache) alloc(size uint32) bool {
	size = (size + 15) &^ 15
	if size > c.cfg.Size {
		return false
	}
	if c.bump+size > c.cfg.Size {
		c.purge()
	}
	c.bump += size
	return true
}

// EnsureTIB makes the class's TIB resident and returns the advanced
// clock. tibAddr/tibSize locate the TIB in main memory.
func (c *CodeCache) EnsureTIB(now cell.Clock, classID int, tibAddr mem.Addr, tibSize uint32) cell.Clock {
	c.core.Stats.Charge(isa.ClassLocalMem, tocCycles)
	now += tocCycles
	if _, ok := c.tibs[classID]; ok {
		c.core.Stats.TIBHits++
		return now
	}
	c.core.Stats.TIBMisses++
	if c.alloc(tibSize) {
		c.tibs[classID] = struct{}{}
	}
	c.core.Stats.Charge(isa.ClassLocalMem, ccInsertCycles)
	now += ccInsertCycles
	return c.transfer(now, tibSize)
}

// transfer bills the DMA of size bytes of metadata/code into the local
// store — or, for a unit too large to ever cache, its streaming — and
// accounts it. No bytes move (see CodeCache).
func (c *CodeCache) transfer(now cell.Clock, size uint32) cell.Clock {
	return billDMA(c.core, now, c.core.MFC.CostOnly(now, size), size, true)
}

// EnsureMethod makes a compiled method's code resident (after its TIB)
// and returns the advanced clock and whether the code was already
// cached. codeAddr/codeSize locate the compiled code in main memory.
func (c *CodeCache) EnsureMethod(now cell.Clock, classID int, tibAddr mem.Addr, tibSize uint32,
	methodID int, codeAddr mem.Addr, codeSize uint32) (cell.Clock, bool) {

	now = c.EnsureTIB(now, classID, tibAddr, tibSize)
	c.core.Stats.Charge(isa.ClassLocalMem, tibCycles)
	now += tibCycles

	if _, ok := c.methods[methodID]; ok {
		c.core.Stats.CodeHits++
		return now, true
	}
	c.core.Stats.CodeMisses++
	if c.alloc(codeSize) {
		c.methods[methodID] = struct{}{}
	}
	c.core.Stats.Charge(isa.ClassLocalMem, ccInsertCycles)
	now += ccInsertCycles
	return c.transfer(now, codeSize), false
}

// Reenter charges the lookup performed when a method returns into its
// caller, re-ensuring the caller's code (it may have been purged while
// the callee ran, §3.2.2).
func (c *CodeCache) Reenter(now cell.Clock, classID int, tibAddr mem.Addr, tibSize uint32,
	methodID int, codeAddr mem.Addr, codeSize uint32) cell.Clock {

	c.core.Stats.Charge(isa.ClassLocalMem, returnCycles)
	now += returnCycles
	now, _ = c.EnsureMethod(now, classID, tibAddr, tibSize, methodID, codeAddr, codeSize)
	return now
}
