// Package sched is Hera-JVM's scheduler: which core runs which queued
// thread next. The VM owns how threads map onto cores (the program
// never picks a policy), and there is one policy, Calendar:
//
//   - one event calendar per core, picking the machine-wide earliest
//     feasible (core, thread) pair with fully deterministic
//     tie-breaking (calendar.go);
//   - before every pick, a same-kind steal pass: a core with no
//     runnable work takes the oldest ready thread of its most-loaded
//     same-kind sibling (steal.go);
//   - then a cost-gated cross-kind migration pass: an idle core of one
//     kind takes the longest-queued thread of an overloaded core of
//     another kind when landing it (migration penalty + recompilation +
//     one predicted service round) beats the thread's predicted start
//     where it is (migrate.go). It needs all three of Options.CostOf,
//     Options.RecompileCost and Options.OnMigrate; with any of them nil
//     the policy only steals.
//
// The package deliberately knows nothing about threads: tasks are
// opaque, and everything the policy needs (the owning core, the ready
// time, per-core clocks, statistics, per-kind cost predictions) arrives
// through the method parameters, the Options hooks and the cell.Core
// values the scheduler is constructed over. See docs/ARCHITECTURE.md
// for the contract the scheduler honours (determinism, clock
// monotonicity, cache visibility).
package sched

import (
	"fmt"
	"slices"
	"strings"

	"herajvm/internal/cell"
)

// Task is one opaque schedulable unit — the VM's *Thread. The scheduler
// never inspects it; ownership changes it makes (steals) flow back to
// the owner through Options.OnSteal.
type Task = any

// Options configures the scheduler: its two penalties and the hooks
// through which it asks the VM for prices and hands moved tasks back.
type Options struct {
	// StealCycles is the penalty the steal pass charges per steal: the
	// stolen task starts on the thief no earlier than the thief's clock
	// plus StealCycles (the cost of pulling the thread's context across
	// the bus).
	StealCycles uint64

	// OnSteal, when non-nil, is invoked once per steal before the task
	// is queued on the thief. The caller updates its own bookkeeping
	// (thread->core binding, publishing the victim's cached writes) and
	// returns the — possibly adjusted, never earlier — time the task is
	// queued at.
	OnSteal func(task Task, from, to *cell.Core, readyAt cell.Clock) cell.Clock

	// MigrateCycles is the penalty the migration pass charges per
	// cross-kind migration before recompilation: packaging the thread's
	// frames and moving them to a core with a different ISA and memory
	// model.
	MigrateCycles uint64

	// CostOf, when non-nil, predicts the cycles one queued task will
	// consume per scheduling round on the given core (the VM supplies
	// the scheduling quantum scaled by the kind's migration affinity).
	// It feeds DrainEstimate and the migration pass's cost gate; nil
	// degrades DrainEstimate to the bare core clock and disables
	// cross-kind migration.
	CostOf func(task Task, core *cell.Core) uint64

	// Pinned, when non-nil, reports that a task is pinned to the core
	// it is queued on and must not be stolen or migrated (the VM pins
	// data-parallel kernel workers one-per-core: their chunk assignment
	// and staged local-store tiles are part of the launch plan, and
	// moving one would silently re-shape the fan-out). Pinned tasks
	// still count toward Load and DrainEstimate — they occupy the core
	// either way. nil means nothing is pinned.
	Pinned func(task Task) bool

	// RecompileCost, when non-nil, reports whether task could execute
	// on core to's kind right now (all frames at kind-independent
	// resume points, a compiler present) and, if so, the predicted
	// cycles of compiling its methods for that kind — 0 when everything
	// is already compiled. nil disables cross-kind migration.
	RecompileCost func(task Task, to *cell.Core) (uint64, bool)

	// OnMigrate, when non-nil, performs a cross-kind migration the cost
	// gate approved: the caller rebinds the task to the target core
	// (recompiling and translating frame state, publishing the victim's
	// cached writes) and returns the — possibly adjusted, never earlier
	// — time the task is queued at, or ok == false to veto the move
	// (nothing has been dequeued yet). nil disables cross-kind
	// migration.
	OnMigrate func(task Task, from, to *cell.Core, readyAt cell.Clock) (at cell.Clock, ok bool)
}

// BestCore returns the position (within cores) of the core with the
// smallest DrainEstimate, breaking ties by Load and then by position,
// plus that estimate. This is the one drain-ranking both consumers of
// the scheduler's predictions share: thread placement (the VM's
// pickCore) and the admission pipeline's deadline probe — a job is
// placed on, and its queueing delay predicted from, the same core the
// same way, so an admission verdict and the subsequent placement can
// never disagree about where the work would go. cores must be
// non-empty; it need not cover the whole machine (callers pass one
// kind's pool).
func BestCore(s *Calendar, cores []*cell.Core) (pos int, drain cell.Clock) {
	pos = 0
	drain = s.DrainEstimate(cores[0].Index)
	bestLoad := s.Load(cores[0].Index)
	for i := 1; i < len(cores); i++ {
		d := s.DrainEstimate(cores[i].Index)
		load := s.Load(cores[i].Index)
		if d < drain || (d == drain && load < bestLoad) {
			pos, drain, bestLoad = i, d, load
		}
	}
	return pos, drain
}

// Names lists the scheduler names New accepts, sorted.
//
// Deprecated: a benchmark shim. Every name builds the one scheduler;
// ROADMAP item 11 deletes the shim along with Config.Scheduler.
func Names() []string { return []string{"calendar", "migrate", "steal"} }

// New builds the scheduler over the machine's cores. The slice must be
// in topology order with cores[i].Index == i (cell.Machine.Cores()
// provides exactly that). name is a benchmark shim: "" and every entry
// of Names (case-insensitive) build the same scheduler, and any other
// name is an error. ROADMAP item 11 deletes the parameter.
func New(name string, cores []*cell.Core, opt Options) (*Calendar, error) {
	if name != "" && !slices.Contains(Names(), strings.ToLower(name)) {
		return nil, fmt.Errorf("sched: unknown scheduler %q (want %s)",
			name, strings.Join(Names(), ", "))
	}
	return &Calendar{cores: cores, cals: make([]coreCalendar, len(cores)), opt: opt}, nil
}
