package sched

import (
	"math/rand"
	"slices"
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/isa"
)

// TestCalHeapKeepsOrder: a seeded stream of pushes, pops and removals
// at arbitrary indexes, under both orders, pops exactly what a sorted
// reference says and leaves a valid heap after every operation.
func TestCalHeapKeepsOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		less func(a, b *calEntry) bool
	}{{"bySeq", bySeq}, {"byTime", byTime}} {
		rng := rand.New(rand.NewSource(1))
		var h calHeap
		var ref []calEntry
		for seq := uint64(1); seq <= 4000; seq++ {
			switch r := rng.Intn(10); {
			case r < 5 || len(h) == 0:
				e := calEntry{at: cell.Clock(rng.Intn(50)), seq: seq}
				h.push(e, tc.less)
				ref = append(ref, e)
			case r < 8:
				slices.SortFunc(ref, func(a, b calEntry) int {
					if tc.less(&a, &b) {
						return -1
					}
					return 1
				})
				if got := h.remove(0, tc.less); got != ref[0] {
					t.Fatalf("%s: pop = %+v, want %+v", tc.name, got, ref[0])
				}
				ref = ref[1:]
			default:
				e := h.remove(rng.Intn(len(h)), tc.less)
				i := slices.Index(ref, e)
				if i < 0 {
					t.Fatalf("%s: removed %+v, which was never queued", tc.name, e)
				}
				ref = slices.Delete(ref, i, i+1)
			}
			for i := 1; i < len(h); i++ {
				if tc.less(&h[i], &h[(i-1)/2]) {
					t.Fatalf("%s: entry %d sorts before its parent", tc.name, i)
				}
			}
		}
	}
}

// TestSchedulingAllocatesNothing pins the scheduler's steady state at
// zero host allocations: once the calendars have grown to their working
// size, an Enqueue+PickNext cycle — steal and migrate passes included —
// and a readyByWait scan allocate nothing.
func TestSchedulingAllocatesNothing(t *testing.T) {
	for _, name := range Names() {
		cores := mkCores(isa.PPE, isa.SPE, isa.SPE)
		opt, _ := migrateOpts(1000, 0, 200)
		s, err := New(name, cores, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			s.Enqueue(cores[1], &struct{ i int }{i}, 0)
		}
		// Every task goes back on the first SPE, so the other two cores
		// keep stealing or migrating from it.
		cycle := func() {
			core, task := s.PickNext()
			core.Now += 1000
			s.Enqueue(cores[1], task, core.Now)
		}
		for i := 0; i < 1000; i++ {
			cycle()
		}
		moved := func() (n uint64) {
			for _, c := range cores {
				n += c.Stats.StealsIn + c.Stats.MigrationsIn
			}
			return n
		}
		before := moved()
		if got := testing.AllocsPerRun(1000, cycle); got != 0 {
			t.Errorf("%s: Enqueue+PickNext allocates %v per cycle, want 0", name, got)
		}
		if name != "calendar" && moved() == before {
			t.Errorf("%s: no task moved while measured, so the balancing passes went unmeasured", name)
		}
	}

	cores := mkCores(isa.SPE)
	opt, _ := migrateOpts(1000, 0, 200)
	s, _ := New("migrate", cores, opt)
	for i := 0; i < 8; i++ {
		s.Enqueue(cores[0], &struct{ i int }{i}, 0)
	}
	cal := s.(*Calendar)
	scan := func() {
		if len(cal.readyByWait(0, cores[0].Now)) != 8 {
			t.Fatal("the scan lost a ready task")
		}
	}
	scan()
	if got := testing.AllocsPerRun(100, scan); got != 0 {
		t.Errorf("readyByWait allocates %v per scan, want 0", got)
	}
}
