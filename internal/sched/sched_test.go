package sched

import (
	"slices"
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/isa"
)

// mkCores builds synthetic cores (topology order, Index == position)
// for driving the scheduler without a machine.
func mkCores(kinds ...isa.CoreKind) []*cell.Core {
	perKind := map[isa.CoreKind]int{}
	out := make([]*cell.Core, len(kinds))
	for i, k := range kinds {
		out[i] = &cell.Core{Kind: k, ID: perKind[k], Index: i}
		perKind[k]++
	}
	return out
}

// TestRegistry holds the deprecated name shim: "" and every legacy
// name, in any case, build the one scheduler, and anything else is
// refused.
func TestRegistry(t *testing.T) {
	names := Names()
	if !slices.Equal(names, []string{"calendar", "migrate", "steal"}) {
		t.Fatalf("Names() = %v, want the three legacy names", names)
	}
	cores := mkCores(isa.PPE)
	for _, n := range append(names, "", "STEAL") {
		if s, err := New(n, cores, Options{}); err != nil || s == nil {
			t.Errorf("New(%q) = %v, %v; want the scheduler", n, s, err)
		}
	}
	if _, err := New("nope", cores, Options{}); err == nil {
		t.Error("unknown scheduler name should error")
	}
}

// TestCalendarNeverBalances: hooks and pins alone decide what the
// balancing passes may move. On the imbalance the steal and migrate
// tests fire on — four ready tasks on one SPE beside an idle sibling
// and an idle PPE, the gate winning — pinned tasks move nowhere,
// hookless ones are only stolen, and with every hook wired one is
// stolen and one migrated.
func TestCalendarNeverBalances(t *testing.T) {
	hooked, _ := migrateOpts(1000, 0, 200)
	pinned := hooked
	pinned.Pinned = func(Task) bool { return true }
	for name, tc := range map[string]struct {
		opt  Options
		want [2]uint64
	}{
		"pinned":   {pinned, [2]uint64{0, 0}},
		"hookless": {Options{StealCycles: hooked.StealCycles}, [2]uint64{1, 0}},
		"hooked":   {hooked, [2]uint64{1, 1}},
	} {
		cores := mkCores(isa.PPE, isa.SPE, isa.SPE)
		s, err := New("", cores, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			s.Enqueue(cores[1], &struct{ i int }{i}, 0)
		}
		if core, _ := s.PickNext(); core != cores[1] {
			t.Errorf("%s: first pick on %v, want the loaded SPE", name, core)
		}
		got := [2]uint64{cores[2].Stats.StealsIn, cores[0].Stats.MigrationsIn}
		if got != tc.want {
			t.Errorf("%s: steals/migrations = %v, want %v", name, got, tc.want)
		}
	}
}

// TestCalendarOrdering exercises the two-heap calendar directly: FIFO
// among already-runnable tasks, (ReadyAt, enqueue order) among future
// ones, and settle migrating entries as the clock advances.
func TestCalendarOrdering(t *testing.T) {
	type task struct{ name string }
	var cal coreCalendar

	// Two ready tasks (ReadyAt <= now) and two future ones.
	early1, early2 := &task{"e1"}, &task{"e2"}
	late1, late2 := &task{"l1"}, &task{"l2"}
	now := cell.Clock(10)
	cal.push(early1, 0, 1, now)
	cal.push(late2, 100, 2, now)
	cal.push(late1, 100, 3, now)
	cal.push(early2, 5, 4, now)
	if cal.length() != 4 {
		t.Fatalf("length = %d", cal.length())
	}

	if start, ok := cal.earliest(now); !ok || start != now {
		t.Fatalf("earliest = %d,%v want %d,true", start, ok, now)
	}
	if got := cal.pop(now); got != early1 {
		t.Error("ready tasks must pop in enqueue order (early1 first)")
	}
	if got := cal.pop(now); got != early2 {
		t.Error("ready tasks must pop in enqueue order (early2 second)")
	}

	// Only future tasks left: earliest is their ReadyAt; equal ReadyAt
	// resolves by enqueue order (late2 was pushed before late1).
	if start, ok := cal.earliest(now); !ok || start != 100 {
		t.Fatalf("future earliest = %d,%v want 100,true", start, ok)
	}
	if got := cal.pop(now); got != late2 {
		t.Error("future ties must resolve by enqueue order")
	}

	// Advancing the clock settles due entries into the ready set.
	now = 200
	if start, ok := cal.earliest(now); !ok || start != now {
		t.Fatalf("post-advance earliest = %d,%v want %d,true", start, ok, now)
	}
	if got := cal.pop(now); got != late1 {
		t.Error("settled task lost")
	}
	if _, ok := cal.earliest(now); ok || cal.length() != 0 {
		t.Error("calendar should be empty")
	}
}

func TestStealFiresOnIdleSameKindSibling(t *testing.T) {
	cores := mkCores(isa.PPE, isa.SPE, isa.SPE)
	spe0, spe1 := cores[1], cores[2]
	var hookTask Task
	var hookFrom, hookTo *cell.Core
	var hookAt cell.Clock
	s, err := New("", cores, Options{
		StealCycles: 250,
		OnSteal: func(task Task, from, to *cell.Core, at cell.Clock) cell.Clock {
			hookTask, hookFrom, hookTo, hookAt = task, from, to, at
			return at
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	a, b, c := &struct{ n int }{1}, &struct{ n int }{2}, &struct{ n int }{3}
	s.Enqueue(spe0, a, 0)
	s.Enqueue(spe0, b, 0)
	s.Enqueue(spe0, c, 0)

	core, task := s.PickNext()
	// The steal pass runs first: idle SPE1 takes the oldest ready task
	// (a) with the 250-cycle penalty, so the pick returns SPE0 with b.
	if core != spe0 || task != b {
		t.Errorf("pick = %v,%v; want SPE0 with the second task", core, task)
	}
	if spe0.Stats.StealsOut != 1 || spe1.Stats.StealsIn != 1 {
		t.Errorf("steal counters: out=%d in=%d, want 1/1",
			spe0.Stats.StealsOut, spe1.Stats.StealsIn)
	}
	if hookTask != a || hookFrom != spe0 || hookTo != spe1 || hookAt != 250 {
		t.Errorf("OnSteal saw (%v, %v->%v, %d); want (a, SPE0->SPE1, 250)",
			hookTask, hookFrom, hookTo, hookAt)
	}
	if s.Load(spe1.Index) != 1 {
		t.Errorf("thief load = %d, want 1", s.Load(spe1.Index))
	}
	// The PPE (different kind) must not have stolen.
	if cores[0].Stats.StealsIn != 0 {
		t.Error("PPE stole from an SPE")
	}
}

func TestStealNeverCrossesKinds(t *testing.T) {
	cores := mkCores(isa.PPE, isa.SPE, isa.VPU)
	spe0 := cores[1]
	s, err := New("", cores, Options{StealCycles: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.Enqueue(spe0, &struct{ i int }{i}, 0)
	}
	s.PickNext()
	for _, c := range cores {
		if c.Stats.StealsIn != 0 || c.Stats.StealsOut != 0 {
			t.Errorf("%v: steals in/out = %d/%d; the SPE has no same-kind sibling, nothing may steal",
				c, c.Stats.StealsIn, c.Stats.StealsOut)
		}
	}
	if s.Load(spe0.Index) != 2 {
		t.Errorf("SPE0 load = %d after one pick, want 2", s.Load(spe0.Index))
	}
}

func TestStealPicksMostLoadedVictimLowestIndexTie(t *testing.T) {
	cores := mkCores(isa.PPE, isa.SPE, isa.SPE, isa.SPE)
	spe0, spe1, spe2 := cores[1], cores[2], cores[3]
	s, _ := New("", cores, Options{StealCycles: 10})
	for i := 0; i < 2; i++ {
		s.Enqueue(spe0, &struct{ i int }{i}, 0)
	}
	for i := 0; i < 3; i++ {
		s.Enqueue(spe1, &struct{ i int }{10 + i}, 0)
	}
	s.PickNext()
	if spe1.Stats.StealsOut != 1 || spe2.Stats.StealsIn != 1 {
		t.Errorf("most-loaded victim: SPE1 out=%d SPE2 in=%d, want 1/1",
			spe1.Stats.StealsOut, spe2.Stats.StealsIn)
	}
	if spe0.Stats.StealsOut != 0 {
		t.Error("the less-loaded sibling was robbed")
	}

	// Equal loads: the lowest-index victim is chosen.
	cores2 := mkCores(isa.SPE, isa.SPE, isa.SPE)
	s2, _ := New("", cores2, Options{})
	for i := 0; i < 2; i++ {
		s2.Enqueue(cores2[0], &struct{ i int }{i}, 0)
		s2.Enqueue(cores2[1], &struct{ i int }{10 + i}, 0)
	}
	s2.PickNext()
	if cores2[0].Stats.StealsOut != 1 || cores2[1].Stats.StealsOut != 0 {
		t.Errorf("tie should rob the lowest index: out=%d/%d",
			cores2[0].Stats.StealsOut, cores2[1].Stats.StealsOut)
	}
}

func TestStealLeavesLoneAndFutureWorkAlone(t *testing.T) {
	cores := mkCores(isa.SPE, isa.SPE)
	s, _ := New("", cores, Options{StealCycles: 10})

	// A lone queued task is never handed off.
	s.Enqueue(cores[0], &struct{}{}, 0)
	if core, _ := s.PickNext(); core != cores[0] {
		t.Errorf("lone task ran on %v, want SPE0", core)
	}
	if cores[1].Stats.StealsIn != 0 {
		t.Error("lone task was stolen")
	}

	// Future-only victims have nothing runnable to steal.
	s.Enqueue(cores[0], &struct{ a int }{1}, 5000)
	s.Enqueue(cores[0], &struct{ a int }{2}, 6000)
	s.PickNext()
	if cores[1].Stats.StealsIn != 0 {
		t.Error("future-only work was stolen; a steal cannot start it earlier")
	}
}

// TestStealByFutureOnlyThief: a core parked behind a far-future sleeper
// has no feasible work *now* and must still steal from a loaded
// sibling.
func TestStealByFutureOnlyThief(t *testing.T) {
	cores := mkCores(isa.SPE, isa.SPE)
	s, _ := New("", cores, Options{StealCycles: 10})
	s.Enqueue(cores[1], &struct{}{}, 1_000_000) // far-future sleeper
	s.Enqueue(cores[0], &struct{ a int }{1}, 0)
	s.Enqueue(cores[0], &struct{ a int }{2}, 0)
	s.PickNext()
	if cores[1].Stats.StealsIn != 1 {
		t.Error("a thief with only far-future work should still steal ready work")
	}
}

// TestStealTakesOneTaskAtATime: after a steal, the thief's pending
// stolen task (queued StealCycles into its future) must suppress
// further steals — an idle core repairs imbalance one task at a time
// instead of hoarding the victim's queue.
func TestStealTakesOneTaskAtATime(t *testing.T) {
	cores := mkCores(isa.SPE, isa.SPE)
	s, _ := New("", cores, Options{StealCycles: 10})
	for i := 0; i < 6; i++ {
		s.Enqueue(cores[0], &struct{ i int }{i}, 0)
	}
	for i := 0; i < 3; i++ {
		s.PickNext()
	}
	if got := cores[1].Stats.StealsIn; got != 1 {
		t.Errorf("idle sibling stole %d tasks over 3 picks, want exactly 1", got)
	}
}

// TestPinnedTasksAreNeverStolen: a pinned task (a kernel worker bound
// to its chunk's core) must stay put even when an idle same-kind
// sibling would otherwise steal it; unpinned tasks on the same victim
// remain stealable.
func TestPinnedTasksAreNeverStolen(t *testing.T) {
	cores := mkCores(isa.SPE, isa.SPE)
	victim, thief := cores[0], cores[1]
	type task struct{ pinned bool }
	p1, p2, p3 := &task{true}, &task{true}, &task{true}
	s, _ := New("", cores, Options{
		StealCycles: 10,
		Pinned:      func(x Task) bool { return x.(*task).pinned },
	})
	s.Enqueue(victim, p1, 0)
	s.Enqueue(victim, p2, 0)
	s.Enqueue(victim, p3, 0)
	s.PickNext()
	if thief.Stats.StealsIn != 0 || victim.Stats.StealsOut != 0 {
		t.Fatalf("pinned tasks were stolen: in=%d out=%d",
			thief.Stats.StealsIn, victim.Stats.StealsOut)
	}

	// An unpinned task among pinned ones is still stealable — and the
	// thief takes the oldest *stealable* one, not the oldest overall.
	free := &task{false}
	s.Enqueue(victim, free, 0)
	var stolen Task
	s2, _ := New("", cores, Options{
		StealCycles: 10,
		Pinned:      func(x Task) bool { return x.(*task).pinned },
		OnSteal: func(x Task, _, _ *cell.Core, at cell.Clock) cell.Clock {
			stolen = x
			return at
		},
	})
	s2.Enqueue(victim, p1, 0)
	s2.Enqueue(victim, free, 0)
	s2.Enqueue(victim, p2, 0)
	s2.PickNext()
	if stolen != free {
		t.Errorf("stole %v, want the unpinned task", stolen)
	}
}

// TestStealNeverRewindsVictimClock: a thief whose clock lags the
// victim must not start the stolen task before the victim's clock —
// the first simulated moment the victim's state can be published.
func TestStealNeverRewindsVictimClock(t *testing.T) {
	cores := mkCores(isa.SPE, isa.SPE)
	victim, thief := cores[0], cores[1]
	victim.Now = 60_000
	thief.Now = 100 // lagging sibling, long idle
	var gotAt cell.Clock
	s, _ := New("", cores, Options{
		StealCycles: 10,
		OnSteal: func(_ Task, _, _ *cell.Core, at cell.Clock) cell.Clock {
			gotAt = at
			return at
		},
	})
	for i := 0; i < 4; i++ {
		s.Enqueue(victim, &struct{ a int }{i}, 50_000) // ready: 50000 <= victim.Now
	}
	s.PickNext()
	if thief.Stats.StealsIn != 1 {
		t.Fatal("expected a steal")
	}
	if gotAt != 60_000 {
		t.Errorf("stolen task starts at %d, want the victim's clock 60000", gotAt)
	}
	// And the lagging thief must not keep stealing while the victim
	// stays loaded: another steal could not land earlier than the
	// pending stolen task, so the profitability guard rejects it.
	s.PickNext()
	if thief.Stats.StealsIn != 1 {
		t.Errorf("lagging thief stole again (%d steals); the guard must see the victim-clock floor",
			thief.Stats.StealsIn)
	}
}
