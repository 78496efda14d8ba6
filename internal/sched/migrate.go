package sched

import "herajvm/internal/cell"

// The migration pass is cost-gated cross-kind migration over the steal
// pass, closing the loop the paper describes between scheduling
// and placement: because both the migration cost and the per-kind
// execution cost are modeled, the runtime may *re-place* a queued
// thread onto a different core kind at run time — not just shuffle it
// between same-kind siblings. Same-kind steals are still preferred
// (they are cheaper: no recompilation, no ISA change); the migration
// pass runs only for cores the steal pass left without feasible work.
//
// The cost gate. An idle core of kind A may take a ready thread from
// an overloaded core of kind B only when the thread is predicted to
// complete its next service round earlier on A than on B — the same
// one-round horizon on both sides:
//
//	landing + recompile + service(A)  <  start(B) + service(B)
//
// where landing is the thief's clock plus Options.MigrateCycles,
// floored at the victim's clock (the first moment the victim's state
// can be published — migrated work never rewinds simulated causality);
// recompile is the jit-supplied predicted cost of compiling the
// thread's methods for kind A (Options.RecompileCost, zero when warm —
// it is charged to the thread's start like a cold code-cache fill);
// service(K) is one predicted scheduling round on kind K
// (Options.CostOf, the quantum scaled by the kind's migration
// affinity); and start(B) is the thread's predicted start time where
// it is — the victim's clock plus the predicted cost of one service
// round for each ready thread enqueued before it, exact under the
// calendar's FIFO ready service. Candidates are tried longest
// predicted wait first (the most recently enqueued ready thread
// backward), and the first that is migratable and wins the gate
// moves; a thread near the queue head has little wait to save, so it
// passes only when the kinds' service prices are asymmetric enough —
// e.g. moving off a reluctant high-affinity kind — for the round
// itself to finish earlier elsewhere. The moved thread completes its
// next round strictly earlier than it would have, and the victim's
// queue drains by one: the migration is a predicted win for both
// sides, or it does not happen.
//
// Mechanically a migration is a steal with a kind change: the victim's
// data cache is flushed (release) and the thief's purged (acquire) by
// the VM's OnMigrate hook, which also recompiles and rebinds the
// thread's frames; both cores count the event
// (Core.Stats.MigrationsIn/Out via NoteMigration).
//
// Determinism: thieves are visited in core-index order, victims picked
// by (load, lowest index), tasks by enqueue sequence, and every gate
// input (clocks, calendar state, cost predictions) is itself
// deterministic, so two runs of one program migrate identically. The
// gate's cost predictor is the same Options.CostOf hook that feeds
// DrainEstimate and readyByWait, so the gate and the drain estimates can
// never disagree on prices.

// migratePass lets every core with no runnable work of its own take one
// thread from a loaded core of a different kind — when the cost gate
// approves. Thieves are visited in core-index order and take at most
// one thread per pass; the same profitability guard as stealing keeps a
// thief that already has queued work (a pending steal, a future
// sleeper) from migrating anything that would start no earlier.
func (s *Calendar) migratePass() {
	for _, thief := range s.cores {
		if s.readyCount(thief.Index, thief.Now) != 0 {
			// Runnable work now: nothing migrated could start earlier.
			continue
		}
		victim := s.pickMigrationVictim(thief)
		if victim == nil {
			continue
		}
		// Landing time: the migration penalty, floored at the victim's
		// clock — the victim's state (the thread's frames, its cached
		// writes) cannot be published to another core before then.
		landing := thief.Now + s.opt.MigrateCycles
		if victim.Now > landing {
			landing = victim.Now
		}
		// Try the victim's ready threads longest predicted wait first;
		// the first migratable gate winner moves.
		for _, cand := range s.readyByWait(victim.Index, victim.Now) {
			if s.isPinned(cand.t) {
				continue // pinned kernel workers never leave their core
			}
			recompile, ok := s.opt.RecompileCost(cand.t, thief)
			if !ok {
				// Not migratable right now: a frame mid-expansion,
				// pending runtime state, or no compiler for the
				// thief's kind.
				continue
			}
			if landing+recompile+s.opt.CostOf(cand.t, thief) >= cand.start+s.opt.CostOf(cand.t, victim) {
				continue // the gate loses: staying is predicted no worse
			}
			if start, ok := s.earliestStart(thief.Index, thief.Now); ok && landing+recompile >= start {
				// The thief's own queued work begins no later than this
				// candidate could land. Recompile cost varies per
				// candidate (warm methods are free), so keep scanning —
				// a cheaper candidate may still land first.
				continue
			}
			at, ok := s.opt.OnMigrate(cand.t, victim, thief, landing)
			if !ok {
				continue // vetoed (e.g. code region full); nothing was dequeued
			}
			s.takeReady(victim.Index, cand.seq)
			s.NoteMigration(victim, thief)
			s.Enqueue(thief, cand.t, at)
			break
		}
	}
}

// pickMigrationVictim returns the most-loaded core of a *different*
// kind worth migrating from (see Calendar.pickLoadedVictim for the
// shared selection rule).
func (s *Calendar) pickMigrationVictim(thief *cell.Core) *cell.Core {
	return s.pickLoadedVictim(func(v *cell.Core) bool {
		return v.Kind != thief.Kind
	})
}
