// Package sched is Hera-JVM's pluggable scheduling subsystem. The VM
// drives the whole machine through the small Scheduler interface below;
// the concrete algorithm — which core runs which queued thread next —
// is one type, Calendar, whose two balancing passes a name switches on
// (New), so the calendar/steal/migrate ablation is a configuration
// sweep over one scheduler:
//
//   - "calendar" (the default): one per-core event calendar, picking the
//     machine-wide earliest feasible (core, thread) pair with fully
//     deterministic tie-breaking. See calendar.go.
//   - "steal": plus the same-kind steal pass — a core whose calendar
//     has no work deterministically steals the oldest ready thread from
//     its most-loaded same-kind sibling. See steal.go.
//   - "migrate": plus the cost-gated cross-kind migration pass — an
//     idle core of one kind takes the longest-queued thread of an
//     overloaded core of another kind when landing it (migration
//     penalty + recompilation + one predicted service round) beats the
//     thread's predicted start time where it is. See migrate.go.
//
// The package deliberately knows nothing about threads: tasks are
// opaque, and everything the algorithms need (the owning core, the
// ready time, per-core clocks, statistics, per-kind cost predictions)
// arrives through the interface parameters, the Options hooks and the
// cell.Core values the scheduler is constructed over. See
// docs/ARCHITECTURE.md for the interface contract the scheduler honours
// (determinism, clock monotonicity, cache visibility).
package sched

import (
	"fmt"
	"strings"

	"herajvm/internal/cell"
)

// Task is one opaque schedulable unit — the VM's *Thread. The scheduler
// never inspects it; ownership changes it makes (steals) flow back to
// the owner through Options.OnSteal.
type Task = any

// Options configures a scheduler instance. Schedulers ignore the fields
// they have no use for.
type Options struct {
	// StealCycles is the penalty a work-stealing scheduler charges per
	// steal: the stolen task starts on the thief no earlier than the
	// thief's clock plus StealCycles (the cost of pulling the thread's
	// context across the bus).
	StealCycles uint64

	// OnSteal, when non-nil, is invoked once per steal before the task
	// is queued on the thief. The caller updates its own bookkeeping
	// (thread->core binding, publishing the victim's cached writes) and
	// returns the — possibly adjusted, never earlier — time the task is
	// queued at.
	OnSteal func(task Task, from, to *cell.Core, readyAt cell.Clock) cell.Clock

	// MigrateCycles is the penalty the "migrate" scheduler charges per
	// cross-kind migration before recompilation: packaging the thread's
	// frames and moving them to a core with a different ISA and memory
	// model.
	MigrateCycles uint64

	// CostOf, when non-nil, predicts the cycles one queued task will
	// consume per scheduling round on the given core (the VM supplies
	// the scheduling quantum scaled by the kind's migration affinity).
	// It feeds DrainEstimate and the migrate scheduler's cost gate; nil
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

// Scheduler decides which queued task each core runs next. One instance
// drives one machine; implementations must be deterministic — two runs
// of the same program must make identical decisions.
type Scheduler interface {
	// Enqueue queues task on core; it becomes runnable at readyAt.
	Enqueue(core *cell.Core, task Task, readyAt cell.Clock)

	// PickNext removes and returns the machine-wide next task and the
	// core it runs on, or (nil, nil) when nothing is queued anywhere
	// (the caller's deadlock signal).
	PickNext() (*cell.Core, Task)

	// Load reports how many tasks are queued on the core with the given
	// global index — the raw queue-depth balance metric.
	Load(coreIndex int) int

	// DrainEstimate predicts when the core with the given global index
	// would finish the work already queued on it: the core's clock plus
	// the Options.CostOf-predicted cost of every queued task (the bare
	// clock when no CostOf hook was configured). Placement weights
	// candidate cores by it — queue depth times mean predicted per-task
	// cost, plus core clock skew — so less imbalance is created for the
	// stealing/migrating schedulers to repair.
	DrainEstimate(coreIndex int) cell.Clock

	// NoteMigration records a thread migration between cores (the
	// cross-kind migration accounting hook: it bumps the cores'
	// MigrationsOut/MigrationsIn counters).
	NoteMigration(from, to *cell.Core)

	// Remove deletes task from the core's queue wherever it sits (ready
	// or future) and reports whether it was found. The VM uses it when a
	// job is frozen for hand-off: the job's parked threads must leave
	// the machine without being scheduled. Removal must not disturb the
	// ordering of the remaining entries.
	Remove(core *cell.Core, task Task) bool

	// Name returns the name the scheduler was built under.
	Name() string
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
func BestCore(s Scheduler, cores []*cell.Core) (pos int, drain cell.Clock) {
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

// DefaultName is the scheduler an empty selection resolves to.
const DefaultName = "calendar"

// Names lists the scheduler names New accepts, sorted.
func Names() []string { return []string{"calendar", "migrate", "steal"} }

// New builds the named scheduler over the machine's cores ("" selects
// DefaultName; names are case-insensitive). The slice must be in
// topology order with cores[i].Index == i (cell.Machine.Cores() provides
// exactly that). The name only chooses which balancing passes run
// before every pick. Cross-kind migration also needs all three of
// Options.CostOf, Options.RecompileCost and Options.OnMigrate; leaving
// any nil reduces "migrate" to plain same-kind stealing.
func New(name string, cores []*cell.Core, opt Options) (Scheduler, error) {
	if name == "" {
		name = DefaultName
	}
	s := &Calendar{name: strings.ToLower(name), cores: cores, cals: make([]coreCalendar, len(cores)), opt: opt}
	switch s.name {
	case "calendar":
	case "migrate":
		s.migrates = opt.CostOf != nil && opt.RecompileCost != nil && opt.OnMigrate != nil
		fallthrough
	case "steal":
		s.steals = true
	default:
		return nil, fmt.Errorf("sched: unknown scheduler %q (want %s)",
			name, strings.Join(Names(), ", "))
	}
	return s, nil
}
