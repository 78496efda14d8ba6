package cell

import "math/bits"

// HWCacheConfig describes one level of the PPE's hardware cache.
type HWCacheConfig struct {
	SizeBytes uint32
	LineBytes uint32
	Ways      int
	// HitCycles is the access latency on a hit at this level.
	HitCycles uint32
}

// HWCache is a set-associative tag-only cache model with LRU replacement.
// It tracks which lines are resident (no data: main memory is the backing
// truth for contents) so the PPE's memory cost depends on real addresses
// and real locality, mirroring how the SPE's software cache depends on
// them.
type HWCache struct {
	cfg     HWCacheConfig
	sets    uint32
	shift   uint32   // log2(LineBytes): an address's line
	setBits uint32   // log2(sets): a line's tag
	ways    uint32   // cfg.Ways
	tags    []uint32 // set s is tags[s*ways:][:ways], MRU first; tag 0xFFFFFFFF = invalid

	Hits, Misses uint64
}

const invalidTag = 0xFFFFFFFF

// NewHWCache builds a cache from its geometry. Size must be a multiple of
// line size times ways.
func NewHWCache(cfg HWCacheConfig) *HWCache {
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / uint32(cfg.Ways)
	if sets == 0 || sets&(sets-1) != 0 {
		// Internal invariant, unreachable because the machine builds its
		// hardware caches only from the constant ppeMemConfig.
		panic("cell: cache set count must be a nonzero power of two")
	}
	c := &HWCache{
		cfg: cfg, sets: sets, ways: uint32(cfg.Ways),
		shift:   uint32(bits.TrailingZeros32(cfg.LineBytes)),
		setBits: uint32(bits.TrailingZeros32(sets)),
		tags:    make([]uint32, sets*uint32(cfg.Ways)),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// Access probes the cache for addr. On a hit the line moves to MRU and
// Access returns true; on a miss the line is installed, evicting LRU.
func (c *HWCache) Access(addr uint32) bool {
	line := addr >> c.shift
	tag := line >> c.setBits
	ways := c.tags[(line&(c.sets-1))*c.ways:][:c.ways]
	for i, t := range ways {
		if t == tag {
			copy(ways[1:i+1], ways[:i]) // move to MRU
			ways[0] = tag
			c.Hits++
			return true
		}
	}
	copy(ways[1:], ways) // evict LRU
	ways[0] = tag
	c.Misses++
	return false
}

// HitCycles returns the configured hit latency.
func (c *HWCache) HitCycles() uint32 { return c.cfg.HitCycles }

// LineBytes returns the cache line size.
func (c *HWCache) LineBytes() uint32 { return c.cfg.LineBytes }

// HitRate returns hits/(hits+misses), or 1 with no accesses.
func (c *HWCache) HitRate() float64 {
	if c.Hits+c.Misses == 0 {
		return 1
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// PPEMemConfig describes the PPE's path to memory.
type PPEMemConfig struct {
	L1 HWCacheConfig
	L2 HWCacheConfig
	// MemCycles is the latency of a main-memory access on an L2 miss.
	MemCycles uint32
}

// ppeMemConfig returns the calibrated PPE hierarchy, the same on every
// machine: 32 KB L1 and 512 KB L2 with 128-byte lines (the Cell PPE's
// geometry) and 200 cycles to main memory.
func ppeMemConfig() PPEMemConfig {
	return PPEMemConfig{
		L1:        HWCacheConfig{SizeBytes: 32 << 10, LineBytes: 128, Ways: 8, HitCycles: 4},
		L2:        HWCacheConfig{SizeBytes: 512 << 10, LineBytes: 128, Ways: 8, HitCycles: 24},
		MemCycles: 200,
	}
}

// PPEMem is the PPE's L1+L2 hierarchy.
type PPEMem struct {
	cfg PPEMemConfig
	L1  *HWCache
	L2  *HWCache
}

// NewPPEMem builds the hierarchy.
func NewPPEMem(cfg PPEMemConfig) *PPEMem {
	return &PPEMem{cfg: cfg, L1: NewHWCache(cfg.L1), L2: NewHWCache(cfg.L2)}
}

// Access returns the cycle cost of a load/store covering
// [addr, addr+size), probing L1 then L2, and reports whether all lines
// hit in L1 ("local" in Figure 5 terms).
func (p *PPEMem) Access(addr, size uint32) (cycles uint32, l1 bool) {
	if size == 0 {
		size = 1
	}
	l1 = true
	first := addr &^ (p.cfg.L1.LineBytes - 1)
	last := (addr + size - 1) &^ (p.cfg.L1.LineBytes - 1)
	for line := first; ; line += p.cfg.L1.LineBytes {
		if p.L1.Access(line) {
			cycles += p.cfg.L1.HitCycles
		} else if p.L2.Access(line) {
			cycles += p.cfg.L2.HitCycles
			l1 = false
		} else {
			cycles += p.cfg.MemCycles
			l1 = false
		}
		if line == last {
			break
		}
	}
	return cycles, l1
}
