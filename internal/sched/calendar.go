package sched

import (
	"cmp"
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

// calHeap is a binary heap of queued tasks over a typed slice, so that
// pushing or popping an entry never boxes it into an interface. Its
// sift functions are container/heap's, step for step, so the heap's
// layout is the one that package would build; the order is the less
// function each call names — bySeq for ready entries, byTime for future
// ones.
type calHeap []calEntry

// bySeq orders ready entries FIFO by enqueue sequence.
func bySeq(a, b *calEntry) bool { return a.seq < b.seq }

// byTime orders future entries by (ReadyAt, enqueue sequence).
func byTime(a, b *calEntry) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }

// push adds e (container/heap's Push).
func (h *calHeap) push(e calEntry, less func(a, b *calEntry) bool) {
	*h = append(*h, e)
	h.up(len(*h)-1, less)
}

// remove deletes and returns entry i (container/heap's Remove; i == 0
// is its Pop).
func (h *calHeap) remove(i int, less func(a, b *calEntry) bool) calEntry {
	s := *h
	n := len(s) - 1
	if n != i {
		s[i], s[n] = s[n], s[i]
		if !h.down(i, n, less) {
			h.up(i, less)
		}
	}
	e := s[n]
	s[n] = calEntry{} // drop the task reference the backing array would keep
	*h = s[:n]
	return e
}

func (h calHeap) up(j int, less func(a, b *calEntry) bool) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !less(&h[j], &h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h calHeap) down(i0, n int, less func(a, b *calEntry) bool) bool {
	i := i0
	for {
		j := 2*i + 1 // left child
		if j >= n || j < 0 {
			break
		}
		if j2 := j + 1; j2 < n && less(&h[j2], &h[j]) {
			j = j2 // right child
		}
		if !less(&h[j], &h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return i > i0
}

// coreCalendar is one core's pending-task calendar.
type coreCalendar struct {
	ready  calHeap // bySeq
	future calHeap // byTime
}

// push queues a task, routing it by its ready time relative to now.
func (c *coreCalendar) push(t Task, at cell.Clock, seq uint64, now cell.Clock) {
	e := calEntry{t: t, at: at, seq: seq}
	if e.at <= now {
		c.ready.push(e, bySeq)
	} else {
		c.future.push(e, byTime)
	}
}

// settle migrates future entries that have come due by now into the
// ready heap. Clocks only move forward, so entries migrate one way.
func (c *coreCalendar) settle(now cell.Clock) {
	for len(c.future) > 0 && c.future[0].at <= now {
		c.ready.push(c.future.remove(0, byTime), bySeq)
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
		return c.ready.remove(0, bySeq).t
	}
	return c.future.remove(0, byTime).t
}

// Calendar is the scheduler: the event calendars above, plus the two
// balancing passes every pick runs first.
type Calendar struct {
	cores []*cell.Core
	cals  []coreCalendar // indexed by Core.Index
	seq   uint64         // global enqueue sequence (tie-break)
	opt   Options
	// waits is readyByWait's result buffer, reused across calls.
	waits []readyWait
}

// isPinned reports whether a task may never leave the core it is
// queued on (no Pinned hook means nothing is pinned).
func (s *Calendar) isPinned(t Task) bool { return s.opt.Pinned != nil && s.opt.Pinned(t) }

// Enqueue queues task on core; it becomes runnable at readyAt.
func (s *Calendar) Enqueue(core *cell.Core, task Task, readyAt cell.Clock) {
	s.seq++
	s.cals[core.Index].push(task, readyAt, s.seq, core.Now)
}

// Load reports how many tasks are queued on the core with the given
// global index — the raw queue-depth balance metric.
func (s *Calendar) Load(coreIndex int) int { return s.cals[coreIndex].length() }

// DrainEstimate predicts when the core with the given global index
// would finish the work already queued on it: the core's clock plus the
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

// PickNext runs the balancing passes — same-kind steals first (they
// are cheaper: no recompilation, no ISA change), then cross-kind
// migration for the cores stealing left without feasible work — and
// removes and returns the (core, task) pair with the earliest feasible
// start time by comparing per-core calendar heads: earliest start wins,
// ties go to the lowest core index, and within a core to enqueue order.
// (nil, nil) means nothing is queued anywhere (the caller's deadlock
// signal).
func (s *Calendar) PickNext() (*cell.Core, Task) {
	if s.loaded() {
		s.stealPass()
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

// loaded reports whether any core holds more than one task: without
// one there is no victim (pickLoadedVictim), and both balancing passes
// would move nothing.
func (s *Calendar) loaded() bool {
	for i := range s.cals {
		if s.cals[i].length() > 1 {
			return true
		}
	}
	return false
}

// NoteMigration records a thread migration between cores: it bumps the
// cores' MigrationsOut/MigrationsIn counters.
func (s *Calendar) NoteMigration(from, to *cell.Core) {
	from.Stats.MigrationsOut++
	to.Stats.MigrationsIn++
}

// Remove deletes task from the core's calendar, ready or future, and
// reports whether it was found. The VM uses it when a job is frozen for
// hand-off: the job's parked threads leave the machine without being
// scheduled. calHeap.remove
// restores the heap invariant, and ordering among the survivors is
// untouched because it derives entirely from the immutable (at, seq)
// keys. Freezes are rare, so the linear scan is fine — the same trade
// takeReady makes.
func (s *Calendar) Remove(core *cell.Core, task Task) bool {
	c := &s.cals[core.Index]
	for i := range c.ready {
		if c.ready[i].t == task {
			c.ready.remove(i, bySeq)
			return true
		}
	}
	for i := range c.future {
		if c.future[i].t == task {
			c.future.remove(i, byTime)
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
	return c.ready.remove(best, bySeq).t, true
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
// hook or when nothing is ready. The slice is the Calendar's own
// buffer, valid until the next call; the calendar is not disturbed.
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
	out := s.waits[:0]
	for i := range c.ready {
		out = append(out, readyWait{t: c.ready[i].t, seq: c.ready[i].seq})
	}
	s.waits = out
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
			return c.ready.remove(i, bySeq).t
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
