// Package kernel plans data-parallel kernel launches. A
// hera/Parallel.forRange call hands the VM an iteration space; this
// package decides which core pool runs it, how the space splits into
// contiguous per-worker chunks (one pinned worker per core of the
// chosen pool), and how a worker's working set tiles through a
// scratchpad for double-buffered DMA staging. It is pure planning — it
// imports only the isa registry and moves no data — so the VM launch
// path, the differential tests and the fuzz harness all exercise one
// deterministic contract.
package kernel

import (
	"fmt"

	"herajvm/internal/isa"
)

// Pool is one candidate worker pool for a launch: every core of a
// single kind.
type Pool struct {
	Kind  isa.CoreKind
	Cores int
}

// Chunk is one worker's contiguous slice [From,To) of the iteration
// space. Worker is the worker's slot within the chosen pool (core i of
// the pool runs chunk with Worker==i).
type Chunk struct {
	From, To int32
	Worker   int
}

// Plan is a fully planned launch: the chosen pool kind and the chunk
// per worker. Chunks are ordered by Worker and exactly cover the
// requested range with no overlap; an empty iteration space plans to
// zero chunks.
type Plan struct {
	Kind   isa.CoreKind
	Chunks []Chunk
}

// Score ranks a pool for SPMD work: the kind's predicted
// floating-point cost per operation divided by the pool's total lane
// count (cores x the kind's SPMD width). Lower is better — it is the
// predicted cost of pushing one FP-heavy iteration through the whole
// pool. A VPU pool wins whenever one is present (cheap FP, wide
// lanes); an SPE pool beats the lone PPE on core count alone.
func (p Pool) Score() float64 {
	if p.Cores <= 0 {
		return 0
	}
	return p.Kind.FPScore() / float64(p.Cores*p.Kind.SPMDWidth())
}

// ChoosePool picks the cheapest capable pool. Pools with no cores are
// skipped; ties keep the earliest entry, so callers passing pools in
// kind-table order get the stable tie-break every other kind-ordered
// decision in the machine uses. ok is false when no pool has a core.
func ChoosePool(pools []Pool) (best Pool, ok bool) {
	for _, p := range pools {
		if p.Cores <= 0 {
			continue
		}
		if !ok || p.Score() < best.Score() {
			best, ok = p, true
		}
	}
	return best, ok
}

// SplitRange splits [from,to) into at most workers contiguous
// non-empty chunks, front-loading the remainder so chunk sizes differ
// by at most one. The split is a pure function of its arguments — the
// determinism the double-replay gates rely on.
func SplitRange(from, to int32, workers int) []Chunk {
	if to <= from || workers <= 0 {
		return nil
	}
	n := int64(to) - int64(from)
	if int64(workers) > n {
		workers = int(n)
	}
	chunks := make([]Chunk, 0, workers)
	base := n / int64(workers)
	rem := n % int64(workers)
	cur := int64(from)
	for w := 0; w < workers; w++ {
		size := base
		if int64(w) < rem {
			size++
		}
		chunks = append(chunks, Chunk{From: int32(cur), To: int32(cur + size), Worker: w})
		cur += size
	}
	return chunks
}

// PlanLaunch chooses a pool and splits the iteration space across it.
// ok is false when no pool has a core to run on.
func PlanLaunch(from, to int32, pools []Pool) (Plan, bool) {
	pool, ok := ChoosePool(pools)
	if !ok {
		return Plan{}, false
	}
	return Plan{Kind: pool.Kind, Chunks: SplitRange(from, to, pool.Cores)}, true
}

// Tile is one contiguous byte window of a worker's staged working set.
type Tile struct {
	Off, Len uint32
}

// Tiles splits a total byte extent into tiles of at most tileBytes
// each (the last tile takes the remainder). The first tile is the one
// a double-buffered worker must block for; later tiles prefetch while
// the previous tile computes. A zero tileBytes is normalized to one
// tile covering everything.
func Tiles(total, tileBytes uint32) []Tile {
	if total == 0 {
		return nil
	}
	if tileBytes == 0 || tileBytes >= total {
		return []Tile{{Off: 0, Len: total}}
	}
	tiles := make([]Tile, 0, (total+tileBytes-1)/tileBytes)
	for off := uint32(0); off < total; off += tileBytes {
		n := tileBytes
		if total-off < n {
			n = total - off
		}
		tiles = append(tiles, Tile{Off: off, Len: n})
	}
	return tiles
}

// Validate checks a plan's structural invariants against the launch it
// claims to cover: chunks ordered by worker, contiguous, non-empty,
// and exactly covering [from,to). The launch path asserts it in tests
// and the fuzz target asserts it for arbitrary descriptors.
func (p Plan) Validate(from, to int32) error {
	if to <= from {
		if len(p.Chunks) != 0 {
			return fmt.Errorf("kernel: empty range [%d,%d) planned %d chunks", from, to, len(p.Chunks))
		}
		return nil
	}
	if len(p.Chunks) == 0 {
		return fmt.Errorf("kernel: range [%d,%d) planned no chunks", from, to)
	}
	cur := from
	for i, c := range p.Chunks {
		if c.Worker != i {
			return fmt.Errorf("kernel: chunk %d has worker %d", i, c.Worker)
		}
		if c.From != cur {
			return fmt.Errorf("kernel: chunk %d starts at %d, want %d", i, c.From, cur)
		}
		if c.To <= c.From {
			return fmt.Errorf("kernel: chunk %d empty [%d,%d)", i, c.From, c.To)
		}
		cur = c.To
	}
	if cur != to {
		return fmt.Errorf("kernel: chunks end at %d, want %d", cur, to)
	}
	return nil
}
