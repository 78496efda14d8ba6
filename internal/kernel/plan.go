// Package kernel plans data-parallel kernel launches. A
// hera/Parallel.forRange call hands the VM an iteration space; this
// package splits it across the core pools the VM offers — each pool
// gets the share that evens out its predicted finish, from the
// per-iteration and staging prices the VM puts on it — into
// contiguous per-worker chunks (one pinned worker per core of each pool
// with a share), and tiles a worker's working set through a scratchpad
// for double-buffered DMA staging. It is pure planning — it imports
// only the isa registry and moves no data — so the VM launch path, the
// differential tests and the fuzz harness all exercise one
// deterministic contract.
package kernel

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"herajvm/internal/isa"
)

// Pool is one candidate worker pool for a launch: every core of a
// single kind, and what the launch is predicted to cost there. Iter is
// the predicted cycles of one iteration on one core of the pool, and
// Stage the cycles each worker spends staging its tiles before its
// first iteration. A pool with no Iter is unpriced: it runs any number
// of iterations once it has staged.
type Pool struct {
	Kind        isa.CoreKind
	Cores       int
	Iter, Stage uint64
}

// Chunk is one worker's contiguous slice [From,To) of the iteration
// space: core Worker of the Kind pool runs it.
type Chunk struct {
	From, To int32
	Kind     isa.CoreKind
	Worker   int
}

// Plan is a fully planned launch: the chunk per worker, in the order
// of the pools it was planned over and by worker within a pool. The
// chunks exactly cover the requested range with no overlap; an empty
// iteration space plans to zero chunks.
type Plan struct {
	Chunks []Chunk
}

// Kinds is the set of pools the plan runs on.
func (p Plan) Kinds() isa.KindSet {
	var s isa.KindSet
	for _, c := range p.Chunks {
		s = s.With(c.Kind)
	}
	return s
}

// Makespan is the pool's predicted cycles for n iterations on it
// alone: each worker stages its tiles, then runs its chunk of at most
// ⌈n/Cores⌉ iterations, and every worker does so at once. It saturates
// rather than wraps. An unpriced pool's makespan is Stage for every n.
func (p Pool) Makespan(n uint64) uint64 {
	if p.Cores <= 0 {
		return math.MaxUint64
	}
	chunk := (n + uint64(p.Cores) - 1) / uint64(p.Cores)
	hi, run := bits.Mul64(p.Iter, chunk)
	if hi != 0 {
		return math.MaxUint64
	}
	return addSat(p.Stage, run)
}

// capacity is how many iterations the pool finishes by cycle t: each
// core runs ⌊(t − Stage)/Iter⌋ of them. An unpriced pool once staged, and every pool with a core at the saturated horizon
// math.MaxUint64, takes any number.
func (p Pool) capacity(t uint64) uint64 {
	switch {
	case p.Cores <= 0:
		return 0
	case t == math.MaxUint64:
		return math.MaxUint64
	case t < p.Stage:
		return 0
	case p.Iter == 0:
		return math.MaxUint64
	}
	hi, c := bits.Mul64((t-p.Stage)/p.Iter, uint64(p.Cores))
	if hi != 0 {
		return math.MaxUint64
	}
	return c
}

// addSat is a+b, saturating at math.MaxUint64.
func addSat(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxUint64
}

// ChoosePool is the one-pool case of the water-fill: the pool that
// alone finishes n iterations first. Pools with no cores are skipped. A
// tie goes to the pool with more cores — so unpriced pools, which all
// tie, go to the widest — and then to the earliest entry, so callers
// passing pools in kind-table order get the stable tie-break every
// other kind-ordered decision in the machine uses. ok is false when no
// pool has a core.
func ChoosePool(n uint64, pools []Pool) (best Pool, ok bool) {
	var bestSpan uint64
	for _, p := range pools {
		if p.Cores <= 0 {
			continue
		}
		span := p.Makespan(n)
		if !ok || span < bestSpan || span == bestSpan && p.Cores > best.Cores {
			best, bestSpan, ok = p, span, true
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

// PlanLaunch water-fills [from,to) over pools. It finds the least
// cycle count T by which the pools together finish every iteration —
// the sum over pools of Cores·⌊(T − Stage)/Iter⌋ reaches n — and
// gives each pool what it finishes before T; the iterations that fit
// only at T itself go to the widest pool first, then in pool order. So
// no pool's predicted finish passes T, and T is at most the best single
// pool's makespan; unpriced pools, which all finish everything at once,
// plan on the widest alone. Each pool's share is split over its cores
// (SplitRange), pools in the order given; a pool with no share gets no
// worker. ok is false when no pool has a core to run on.
func PlanLaunch(from, to int32, pools []Pool) (Plan, bool) {
	n := uint64(max(int64(to)-int64(from), 0))
	best, ok := ChoosePool(n, pools)
	if !ok || n == 0 {
		return Plan{}, ok
	}
	fits := func(t uint64) bool {
		var total uint64
		for _, p := range pools {
			if total += min(p.capacity(t), n-total); total == n {
				return true
			}
		}
		return false
	}
	lo, hi := uint64(0), best.Makespan(n) // the best pool alone fits n by hi
	for lo < hi {
		if mid := lo + (hi-lo)/2; fits(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	shares, left := make([]uint64, len(pools)), n
	if hi > 0 {
		for i, p := range pools {
			shares[i] = min(p.capacity(hi-1), left)
			left -= shares[i]
		}
	}
	widest := make([]int, len(pools))
	for i := range widest {
		widest[i] = i
	}
	slices.SortStableFunc(widest, func(a, b int) int { return pools[b].Cores - pools[a].Cores })
	for _, i := range widest {
		extra := min(pools[i].capacity(hi)-shares[i], left)
		shares[i] += extra
		left -= extra
	}
	var plan Plan
	cur := int64(from)
	for i, p := range pools {
		end := cur + int64(shares[i])
		for _, c := range SplitRange(int32(cur), int32(end), p.Cores) {
			c.Kind = p.Kind
			plan.Chunks = append(plan.Chunks, c)
		}
		cur = end
	}
	return plan, true
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
// claims to cover and the pools it was planned over: chunks
// contiguous, non-empty and exactly covering [from,to), so every
// iteration runs once; and each (Kind, Worker) pair unique and below
// that pool's core count, so no core runs two workers. The launch path
// asserts it in tests and the fuzz target asserts it for arbitrary
// descriptors.
func (p Plan) Validate(from, to int32, pools []Pool) error {
	if to <= from {
		if len(p.Chunks) != 0 {
			return fmt.Errorf("kernel: empty range [%d,%d) planned %d chunks", from, to, len(p.Chunks))
		}
		return nil
	}
	if len(p.Chunks) == 0 {
		return fmt.Errorf("kernel: range [%d,%d) planned no chunks", from, to)
	}
	type slot struct {
		kind   isa.CoreKind
		worker int
	}
	taken := map[slot]bool{}
	cur := from
	for i, c := range p.Chunks {
		pool := slices.IndexFunc(pools, func(p Pool) bool { return p.Kind == c.Kind })
		if pool < 0 || c.Worker < 0 || c.Worker >= pools[pool].Cores {
			return fmt.Errorf("kernel: chunk %d runs on %v worker %d, which has no core", i, c.Kind, c.Worker)
		}
		s := slot{c.Kind, c.Worker}
		if taken[s] {
			return fmt.Errorf("kernel: chunk %d reuses %v worker %d", i, c.Kind, c.Worker)
		}
		taken[s] = true
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
