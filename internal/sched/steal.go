package sched

import "herajvm/internal/cell"

// The steal pass is same-kind work stealing over the calendars — the
// ROADMAP's "an idle SPE should be able to steal queued threads from a
// loaded sibling's calendar". Before every pick, each core with
// no feasible work steals the oldest ready task from the most-loaded
// sibling of its own kind (ties resolve to the lowest core index) when
// the steal would start that task earlier than anything the core
// already has queued, so
// imbalance left behind by placement-time load balancing — unequal
// thread lengths, early finishers — is repaired at run time.
//
// Steals never cross kinds: a task queued on an SPE was compiled and
// placed for the SPE's ISA and memory model, and moving it to another
// kind is a migration (a policy decision with its own costs), not a
// steal. The thief pays Options.StealCycles before the stolen task can
// start, and both sides count the event (Core.Stats.StealsIn/Out).
//
// Determinism: the steal pass walks thieves in core-index order, picks
// victims by (load, lowest index) and tasks by enqueue sequence, and
// consults only core clocks and calendar state — all themselves
// deterministic — so two runs of one program steal identically.

// stealPass lets every core with no feasible work steal one task from
// a loaded same-kind sibling — but only when the steal is profitable:
// the stolen task must start on the thief strictly earlier than
// anything the thief already has queued. That single rule covers every
// case: an empty calendar always steals, a core parked behind a
// far-future sleeper steals (the stolen work starts first), and a core
// that just stole never immediately re-steals (a second steal cannot
// start earlier than the first), so an idle core takes one task at a
// time instead of hoarding a victim's queue. Thieves are visited in
// core-index order.
func (s *Calendar) stealPass() {
	for _, thief := range s.cores {
		if s.readyCount(thief.Index, thief.Now) != 0 {
			// Runnable work now: no steal can start earlier.
			continue
		}
		victim := s.pickVictim(thief)
		if victim == nil {
			continue
		}
		// The stolen task would start after the steal penalty, but never
		// earlier in simulated time than the victim's clock — that is
		// the first moment the victim's state (the task's ready event,
		// its cached writes) can be published to a sibling, and a
		// lagging thief's clock must not rewind that causality. Judging
		// profitability on this floor also keeps the no-hoarding
		// invariant exact: the victim's clock only moves forward, so a
		// second steal can never land earlier than the first.
		stealStart := thief.Now + s.opt.StealCycles
		if victim.Now > stealStart {
			stealStart = victim.Now
		}
		if start, ok := s.earliestStart(thief.Index, thief.Now); ok && stealStart >= start {
			// The thief's own queued work begins no later: not profitable.
			continue
		}
		task, ok := s.stealOldestReady(victim.Index)
		if !ok {
			// Every ready task on the victim is pinned in place.
			continue
		}
		victim.Stats.StealsOut++
		thief.Stats.StealsIn++
		at := stealStart
		if s.opt.OnSteal != nil {
			at = s.opt.OnSteal(task, victim, thief, at)
		}
		s.Enqueue(thief, task, at)
	}
}

// pickVictim returns the most-loaded same-kind sibling worth stealing
// from (stealing future work would start it no earlier, so the victim
// must have ready work; see Calendar.pickLoadedVictim for the shared
// selection rule).
func (s *Calendar) pickVictim(thief *cell.Core) *cell.Core {
	return s.pickLoadedVictim(func(v *cell.Core) bool {
		return v != thief && v.Kind == thief.Kind
	})
}
