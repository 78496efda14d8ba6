package sched

import (
	"cmp"
	"container/heap"
	"slices"

	"herajvm/internal/cell"
)

// The calendar scheduler keeps one event calendar per core instead of
// scanning every live thread on every step. Each calendar splits its
// queued tasks in two:
//
//   - ready:  tasks whose ReadyAt has already passed the core's clock.
//     Their feasible start is the clock itself, so the earliest of them
//     is simply the one queued first (FIFO order, tracked by a global
//     enqueue sequence number).
//   - future: tasks whose ReadyAt is still ahead of the clock, ordered
//     by (ReadyAt, sequence).
//
// As the core's clock advances, due entries migrate from future to ready
// (settle). Picking the next task machine-wide is then an argmin over
// per-core calendar heads — O(cores + log queue) per scheduling step
// rather than O(live threads) — with fully deterministic tie-breaking:
// earliest feasible start, then lowest core index, then enqueue order.

// calEntry is one queued task. at snapshots the task's ready time when
// it was enqueued; seq is the global enqueue sequence number that makes
// ordering total.
type calEntry struct {
	t   Task
	at  cell.Clock
	seq uint64
}

// seqHeap orders ready entries FIFO by enqueue sequence.
type seqHeap []calEntry

func (h seqHeap) Len() int           { return len(h) }
func (h seqHeap) Less(i, j int) bool { return h[i].seq < h[j].seq }
func (h seqHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *seqHeap) Push(x any)        { *h = append(*h, x.(calEntry)) }
func (h *seqHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// timeHeap orders future entries by (ReadyAt, enqueue sequence).
type timeHeap []calEntry

func (h timeHeap) Len() int { return len(h) }
func (h timeHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timeHeap) Push(x any)   { *h = append(*h, x.(calEntry)) }
func (h *timeHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// coreCalendar is one core's pending-task calendar.
type coreCalendar struct {
	ready  seqHeap
	future timeHeap
}

// push queues a task, routing it by its ready time relative to now.
func (c *coreCalendar) push(t Task, at cell.Clock, seq uint64, now cell.Clock) {
	e := calEntry{t: t, at: at, seq: seq}
	if e.at <= now {
		heap.Push(&c.ready, e)
	} else {
		heap.Push(&c.future, e)
	}
}

// settle migrates future entries that have come due by now into the
// ready heap. Clocks only move forward, so entries migrate one way.
func (c *coreCalendar) settle(now cell.Clock) {
	for len(c.future) > 0 && c.future[0].at <= now {
		heap.Push(&c.ready, heap.Pop(&c.future))
	}
}

// length is the number of queued tasks (the load metric placement uses).
func (c *coreCalendar) length() int { return len(c.ready) + len(c.future) }

// earliest returns the feasible start time of the calendar's best task
// given the core clock: now if anything is already runnable, otherwise
// the soonest future ReadyAt. ok is false for an empty calendar.
func (c *coreCalendar) earliest(now cell.Clock) (start cell.Clock, ok bool) {
	c.settle(now)
	if len(c.ready) > 0 {
		return now, true
	}
	if len(c.future) > 0 {
		return c.future[0].at, true
	}
	return 0, false
}

// pop removes and returns the task earliest() identified. The caller
// must have seen ok==true from earliest at the same clock.
func (c *coreCalendar) pop(now cell.Clock) Task {
	c.settle(now)
	if len(c.ready) > 0 {
		return heap.Pop(&c.ready).(calEntry).t
	}
	return heap.Pop(&c.future).(calEntry).t
}

// Calendar is the scheduler: the event calendars above, plus the two
// optional balancing passes New switches on by name.
type Calendar struct {
	name  string
	cores []*cell.Core
	cals  []coreCalendar // indexed by Core.Index
	seq   uint64         // global enqueue sequence (tie-break)
	opt   Options
	// steals and migrates enable the same-kind steal pass (steal.go) and
	// the cross-kind migration pass (migrate.go) before every pick.
	steals, migrates bool
}

// isPinned reports whether a task may never leave the core it is
// queued on (no Pinned hook means nothing is pinned).
func (s *Calendar) isPinned(t Task) bool { return s.opt.Pinned != nil && s.opt.Pinned(t) }

// Name implements Scheduler.
func (s *Calendar) Name() string { return s.name }

// Enqueue implements Scheduler.
func (s *Calendar) Enqueue(core *cell.Core, task Task, readyAt cell.Clock) {
	s.seq++
	s.cals[core.Index].push(task, readyAt, s.seq, core.Now)
}

// Load implements Scheduler.
func (s *Calendar) Load(coreIndex int) int { return s.cals[coreIndex].length() }

// DrainEstimate implements Scheduler: the core's clock plus the
// predicted cost of everything queued on it, ready and future alike.
// This is deliberately a *load index* for placement, not a literal
// completion time: a future task is charged its service cost but not
// its ReadyAt, because what placement wants to know is how much
// queued work a new thread would contend with — a task sleeping until
// the far future neither blocks a new ready thread from starting now
// (so its ReadyAt must not inflate the estimate) nor stops counting
// as eventual contention (so it still contributes its cost). Without
// a CostOf hook the estimate degrades to the bare clock (Load still
// carries the depth signal separately).
func (s *Calendar) DrainEstimate(coreIndex int) cell.Clock {
	d := s.cores[coreIndex].Now
	if s.opt.CostOf == nil {
		return d
	}
	core := s.cores[coreIndex]
	c := &s.cals[coreIndex]
	for i := range c.ready {
		d += s.opt.CostOf(c.ready[i].t, core)
	}
	for i := range c.future {
		d += s.opt.CostOf(c.future[i].t, core)
	}
	return d
}

// PickNext runs the enabled balancing passes — same-kind steals first
// (they are cheaper: no recompilation, no ISA change), then cross-kind
// migration for the cores stealing left without feasible work — and
// selects the (core, task) pair with the earliest feasible start time
// by comparing per-core calendar heads: earliest start wins, ties go to
// the lowest core index, and within a core to enqueue order.
func (s *Calendar) PickNext() (*cell.Core, Task) {
	if s.steals {
		s.stealPass()
	}
	if s.migrates {
		s.migratePass()
	}
	var bestCore *cell.Core
	var bestTime cell.Clock
	for _, core := range s.cores {
		start, ok := s.cals[core.Index].earliest(core.Now)
		if ok && (bestCore == nil || start < bestTime) {
			bestCore, bestTime = core, start
		}
	}
	if bestCore == nil {
		return nil, nil
	}
	return bestCore, s.cals[bestCore.Index].pop(bestCore.Now)
}

// NoteMigration implements Scheduler: charge the migration to both
// cores' counters.
func (s *Calendar) NoteMigration(from, to *cell.Core) {
	from.Stats.MigrationsOut++
	to.Stats.MigrationsIn++
}

// Remove implements Scheduler: delete task from the core's calendar,
// ready or future, reporting whether it was found. heap.Remove restores
// the heap invariant, and ordering among the survivors is untouched
// because it derives entirely from the immutable (at, seq) keys. Freezes
// are rare, so the linear scan is fine — the same trade takeReady makes.
func (s *Calendar) Remove(core *cell.Core, task Task) bool {
	c := &s.cals[core.Index]
	for i := range c.ready {
		if c.ready[i].t == task {
			heap.Remove(&c.ready, i)
			return true
		}
	}
	for i := range c.future {
		if c.future[i].t == task {
			heap.Remove(&c.future, i)
			return true
		}
	}
	return false
}

// readyCount reports how many of a core's queued tasks are already
// runnable at the core's clock (the stealable set).
func (s *Calendar) readyCount(coreIndex int, now cell.Clock) int {
	c := &s.cals[coreIndex]
	c.settle(now)
	return len(c.ready)
}

// earliestStart exposes a core calendar's earliest feasible start to
// the stealing layer (ok is false for an empty calendar).
func (s *Calendar) earliestStart(coreIndex int, now cell.Clock) (cell.Clock, bool) {
	return s.cals[coreIndex].earliest(now)
}

// stealOldestReady removes and returns the oldest (lowest enqueue
// sequence) stealable ready task of a core. Pinned tasks are skipped;
// ok is false when every ready task is pinned (or none is ready).
func (s *Calendar) stealOldestReady(coreIndex int) (Task, bool) {
	c := &s.cals[coreIndex]
	best := -1
	for i := range c.ready {
		if s.isPinned(c.ready[i].t) {
			continue
		}
		if best < 0 || c.ready[i].seq < c.ready[best].seq {
			best = i
		}
	}
	if best < 0 {
		return nil, false
	}
	return heap.Remove(&c.ready, best).(calEntry).t, true
}

// readyWait is one entry of readyByWait: a ready task, its (unique)
// enqueue sequence, and its predicted FIFO start time on its core.
type readyWait struct {
	t     Task
	seq   uint64
	start cell.Clock
}

// readyByWait returns a core's ready tasks ordered by descending
// predicted wait (most recently enqueued first), each with its
// predicted start time on that core: the core's clock plus the
// CostOf-predicted cost of every ready task enqueued before it —
// exact under the calendar's FIFO ready service. Nil without a CostOf
// hook or when nothing is ready. The slice is freshly built; the
// calendar is not disturbed.
func (s *Calendar) readyByWait(coreIndex int, now cell.Clock) []readyWait {
	if s.opt.CostOf == nil {
		return nil
	}
	core := s.cores[coreIndex]
	c := &s.cals[coreIndex]
	c.settle(now)
	if len(c.ready) == 0 {
		return nil
	}
	out := make([]readyWait, len(c.ready))
	for i := range c.ready {
		out[i] = readyWait{t: c.ready[i].t, seq: c.ready[i].seq}
	}
	slices.SortFunc(out, func(a, b readyWait) int { return cmp.Compare(b.seq, a.seq) })
	// Oldest-first prefix sums give each task its FIFO start.
	start := now
	for i := len(out) - 1; i >= 0; i-- {
		out[i].start = start
		start += cell.Clock(s.opt.CostOf(out[i].t, core))
	}
	return out
}

// takeReady removes and returns the ready task with the given enqueue
// sequence. The caller must hold the sequence from a readyByWait scan
// at the same clock.
func (s *Calendar) takeReady(coreIndex int, seq uint64) Task {
	c := &s.cals[coreIndex]
	for i := range c.ready {
		if c.ready[i].seq == seq {
			return heap.Remove(&c.ready, i).(calEntry).t
		}
	}
	// Internal invariant, unreachable because seq comes from a readyByWait scan of c.ready.
	panic("sched: takeReady sequence not in the ready set")
}

// pickLoadedVictim returns the most-loaded core matching the predicate
// that can spare a runnable task: it must keep at least one queued
// task after the hand-off (no pointless moves of a lone task) and have
// a task that is already ready at its clock. Ties on load resolve to
// the lowest core index; nil means no viable victim. The stealing and
// migrating layers share this rule, differing only in the predicate
// (same-kind sibling vs any other kind).
func (s *Calendar) pickLoadedVictim(match func(*cell.Core) bool) *cell.Core {
	var best *cell.Core
	bestLoad := 1
	for _, v := range s.cores {
		if !match(v) {
			continue
		}
		load := s.Load(v.Index)
		if load <= bestLoad { // strict: ties keep the earlier (lower) index
			continue
		}
		if s.readyCount(v.Index, v.Now) == 0 {
			continue
		}
		best, bestLoad = v, load
	}
	return best
}
