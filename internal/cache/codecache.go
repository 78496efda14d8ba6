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

type ccEntry struct {
	lsAddr uint32
	size   uint32
}

// CodeCache is one local-store core's software code cache. Method code
// and TIBs are
// cached whole with bump-pointer allocation; the cache is completely
// purged when full. Lookup follows the paper's Figure 3 path: the
// permanently resident 2 KB TOC maps a class ID to its TIB; the (cached)
// TIB maps a method to its code; both pointers live in low-latency local
// memory on the hit path.
type CodeCache struct {
	cfg  CodeCacheConfig
	core *cell.Core
	base uint32
	bump uint32

	tibs    map[int]ccEntry // class ID -> cached TIB
	methods map[int]ccEntry // method ID -> cached code
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
	if uint64(base)+uint64(cfg.Size) > uint64(len(core.LS)) {
		panic(fmt.Sprintf("cache: code cache [%#x,%#x) exceeds local store %#x",
			base, base+cfg.Size, len(core.LS)))
	}
	return &CodeCache{
		cfg:     cfg,
		core:    core,
		base:    base,
		tibs:    make(map[int]ccEntry),
		methods: make(map[int]ccEntry),
	}
}

// Config returns the cache configuration.
func (c *CodeCache) Config() CodeCacheConfig { return c.cfg }

// UsedBytes returns the bump-allocated bytes.
func (c *CodeCache) UsedBytes() uint32 { return c.bump }

// CachedMethods returns how many methods are resident.
func (c *CodeCache) CachedMethods() int { return len(c.methods) }

// purge drops everything (code is never dirty, so nothing writes back).
func (c *CodeCache) purge() {
	clear(c.tibs)
	clear(c.methods)
	c.bump = 0
	c.core.Stats.CodePurges++
}

// alloc bump-allocates size bytes, purging the whole cache when full.
// The bool result is false when size can never fit (larger than the
// cache); callers then run the transfer uncached.
func (c *CodeCache) alloc(size uint32) (uint32, bool) {
	size = (size + 15) &^ 15
	if size > c.cfg.Size {
		return 0, false
	}
	if c.bump+size > c.cfg.Size {
		c.purge()
	}
	a := c.base + c.bump
	c.bump += size
	return a, true
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
	ls, fits := c.alloc(tibSize)
	if fits {
		c.tibs[classID] = ccEntry{lsAddr: ls, size: tibSize}
	}
	c.core.Stats.Charge(isa.ClassLocalMem, ccInsertCycles)
	now += ccInsertCycles
	return c.transfer(now, tibAddr, ls, tibSize, fits)
}

// transfer moves size bytes of metadata/code into the local store (or
// charges streaming cost for a unit too large to ever cache) and
// accounts the DMA.
func (c *CodeCache) transfer(now cell.Clock, from mem.Addr, ls, size uint32, fits bool) cell.Clock {
	var done cell.Clock
	if fits {
		done = c.core.MFC.DMA(now, cell.DMAGet, from, ls, size)
	} else {
		done = c.core.MFC.CostOnly(now, size)
	}
	c.core.Stats.DMATransfers++
	c.core.Stats.DMABytes += uint64(size)
	c.core.Stats.DMAWait += done - now
	c.core.Stats.Charge(isa.ClassMainMem, done-now)
	return done
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
	ls, fits := c.alloc(codeSize)
	if fits {
		c.methods[methodID] = ccEntry{lsAddr: ls, size: codeSize}
	}
	c.core.Stats.Charge(isa.ClassLocalMem, ccInsertCycles)
	now += ccInsertCycles
	return c.transfer(now, codeAddr, ls, codeSize, fits), false
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
