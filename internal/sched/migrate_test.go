package sched

import (
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/isa"
)

// migrateOpts returns Options wired with synthetic cost hooks: every
// task costs `service` cycles per round on any core, recompilation
// costs `recompile` (always feasible), and OnMigrate accepts at the
// offered time. The returned pointers observe the last migration.
func migrateOpts(service, recompile, migrateCycles uint64) (Options, *struct {
	task     Task
	from, to *cell.Core
	at       cell.Clock
	count    int
}) {
	seen := &struct {
		task     Task
		from, to *cell.Core
		at       cell.Clock
		count    int
	}{}
	return Options{
		MigrateCycles: migrateCycles,
		CostOf:        func(Task, *cell.Core) uint64 { return service },
		RecompileCost: func(Task, *cell.Core) (uint64, bool) { return recompile, true },
		OnMigrate: func(task Task, from, to *cell.Core, at cell.Clock) (cell.Clock, bool) {
			seen.task, seen.from, seen.to, seen.at = task, from, to, at
			seen.count++
			return at, true
		},
	}, seen
}

// TestMigrateFiresWhenGateWins: an idle PPE beside an SPE with four
// ready tasks migrates exactly the longest-queued one — the youngest
// ready task, whose FIFO start is furthest out — when landing +
// recompile + one service round on the PPE beats the task's predicted
// round completion on the SPE (start after the 3 ready tasks ahead of
// it, 3000, plus its own 1000-cycle round = 4000 > 200+500+1000).
func TestMigrateFiresWhenGateWins(t *testing.T) {
	cores := mkCores(isa.PPE, isa.SPE)
	ppe, spe := cores[0], cores[1]
	opt, seen := migrateOpts(1000, 500, 200)
	s, err := New("", cores, opt)
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]Task, 4)
	for i := range tasks {
		tasks[i] = &struct{ i int }{i}
		s.Enqueue(spe, tasks[i], 0)
	}
	core, next := s.PickNext()
	if seen.count != 1 {
		t.Fatalf("migrations = %d, want exactly 1", seen.count)
	}
	if seen.task != tasks[3] || seen.from != spe || seen.to != ppe {
		t.Errorf("migrated (%v, %v->%v); want the youngest ready task (longest wait), SPE->PPE",
			seen.task, seen.from, seen.to)
	}
	if seen.at != 200 {
		t.Errorf("landing time %d, want thief clock + MigrateCycles = 200", seen.at)
	}
	if ppe.Stats.MigrationsIn != 1 || spe.Stats.MigrationsOut != 1 {
		t.Errorf("migration counters in/out = %d/%d, want 1/1",
			ppe.Stats.MigrationsIn, spe.Stats.MigrationsOut)
	}
	// The pick itself: the SPE's FIFO order among the remaining ready
	// tasks is undisturbed (the migrated task sits 200 cycles in the
	// PPE's future).
	if core != spe || next != tasks[0] {
		t.Errorf("pick = %v,%v; want SPE with its oldest ready task", core, next)
	}
}

// TestMigrateNeverFiresWhenGateLoses sweeps the gate's cost inputs:
// a predicted dead heat (equal round completion on both sides — ties
// must stay put), a recompile estimate dearer than the queue wait,
// and a huge MigrateCycles penalty; no migration may happen in any of
// them.
func TestMigrateNeverFiresWhenGateLoses(t *testing.T) {
	cases := []struct {
		name                        string
		queued                      int
		service, recompile, penalty uint64
	}{
		{"dead heat", 2, 1000, 1000, 0},
		{"recompile too dear", 4, 1000, 10_000, 0},
		{"penalty too dear", 4, 1000, 0, 10_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cores := mkCores(isa.PPE, isa.SPE)
			spe := cores[1]
			opt, seen := migrateOpts(tc.service, tc.recompile, tc.penalty)
			s, err := New("", cores, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.queued; i++ {
				s.Enqueue(spe, &struct{ i int }{i}, 0)
			}
			s.PickNext()
			if seen.count != 0 {
				t.Errorf("cost gate lost but %d migrations fired", seen.count)
			}
			for _, c := range cores {
				if c.Stats.MigrationsIn != 0 || c.Stats.MigrationsOut != 0 {
					t.Errorf("%v: migrations in/out = %d/%d, want 0/0",
						c, c.Stats.MigrationsIn, c.Stats.MigrationsOut)
				}
			}
		})
	}
}

// TestMigrateNeverRewindsVictimClock: the landing time offered to
// OnMigrate is floored at the victim's clock — the first simulated
// moment the victim's state can be published to another kind.
func TestMigrateNeverRewindsVictimClock(t *testing.T) {
	cores := mkCores(isa.PPE, isa.SPE)
	spe := cores[1]
	spe.Now = 50_000
	opt, seen := migrateOpts(1000, 0, 100)
	s, _ := New("", cores, opt)
	for i := 0; i < 4; i++ {
		s.Enqueue(spe, &struct{ i int }{i}, 0)
	}
	s.PickNext()
	if seen.count != 1 {
		t.Fatal("expected a migration (idle lagging PPE, overloaded SPE)")
	}
	if seen.at != 50_000 {
		t.Errorf("landing time %d, want the victim's clock 50000", seen.at)
	}
}

// TestMigratePrefersSameKindSteal: when the idle core has a same-kind
// sibling to steal from, the steal pass satisfies it first and the
// migration pass must not also fire for it.
func TestMigratePrefersSameKindSteal(t *testing.T) {
	cores := mkCores(isa.SPE, isa.SPE, isa.PPE)
	spe0 := cores[0]
	opt, seen := migrateOpts(1000, 0, 0)
	opt.StealCycles = 10
	s, _ := New("", cores, opt)
	for i := 0; i < 4; i++ {
		s.Enqueue(spe0, &struct{ i int }{i}, 0)
	}
	s.PickNext()
	if cores[1].Stats.StealsIn != 1 {
		t.Errorf("same-kind sibling steals = %d, want 1", cores[1].Stats.StealsIn)
	}
	if cores[1].Stats.MigrationsIn != 0 {
		t.Error("the sibling both stole and migrated in one pass")
	}
	// The cross-kind PPE may still migrate (it has no same-kind victim).
	if seen.count != 0 && seen.to != cores[2] {
		t.Errorf("unexpected migration target %v", seen.to)
	}
}

// TestMigrateVetoLeavesQueueIntact: an OnMigrate veto (ok == false)
// must leave the victim's queue and both counters untouched.
func TestMigrateVetoLeavesQueueIntact(t *testing.T) {
	cores := mkCores(isa.PPE, isa.SPE)
	spe := cores[1]
	opt, _ := migrateOpts(1000, 0, 0)
	opt.OnMigrate = func(Task, *cell.Core, *cell.Core, cell.Clock) (cell.Clock, bool) {
		return 0, false
	}
	s, _ := New("", cores, opt)
	for i := 0; i < 4; i++ {
		s.Enqueue(spe, &struct{ i int }{i}, 0)
	}
	s.PickNext()
	if got := s.Load(spe.Index); got != 3 { // one popped by PickNext itself
		t.Errorf("victim load = %d after veto + one pick, want 3", got)
	}
	if cores[0].Stats.MigrationsIn != 0 || spe.Stats.MigrationsOut != 0 {
		t.Error("vetoed migration was counted")
	}
}

// TestMigrateDisabledWithoutHooks: with no cost hooks the scheduler
// degenerates to plain same-kind stealing — cross-kind queues are never
// touched.
func TestMigrateDisabledWithoutHooks(t *testing.T) {
	cores := mkCores(isa.PPE, isa.SPE)
	spe := cores[1]
	s, err := New("", cores, Options{MigrateCycles: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Enqueue(spe, &struct{ i int }{i}, 0)
	}
	s.PickNext()
	if cores[0].Stats.MigrationsIn != 0 {
		t.Error("hookless scheduler migrated")
	}
}

// TestDrainEstimate: without CostOf the estimate is the bare clock;
// with it, clock plus the predicted cost of every queued task (ready
// and future alike).
func TestDrainEstimate(t *testing.T) {
	cores := mkCores(isa.SPE)
	spe := cores[0]
	spe.Now = 700
	bare, _ := New("", cores, Options{})
	bare.Enqueue(spe, &struct{}{}, 0)
	if got := bare.DrainEstimate(spe.Index); got != 700 {
		t.Errorf("bare DrainEstimate = %d, want the clock 700", got)
	}

	cores2 := mkCores(isa.SPE)
	spe2 := cores2[0]
	spe2.Now = 700
	s, _ := New("", cores2, Options{
		CostOf: func(Task, *cell.Core) uint64 { return 400 },
	})
	s.Enqueue(spe2, &struct{ a int }{}, 0)    // ready
	s.Enqueue(spe2, &struct{ b int }{}, 9000) // future
	if got := s.DrainEstimate(spe2.Index); got != 700+2*400 {
		t.Errorf("DrainEstimate = %d, want clock + 2 tasks x 400 = 1500", got)
	}
	if got := s.DrainEstimate(spe2.Index); got != 1500 {
		t.Errorf("DrainEstimate not stable across calls: %d", got)
	}
}
