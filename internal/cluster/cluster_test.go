package cluster

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
	"herajvm/internal/vm"
)

// buildWork returns a builder for a one-class program whose main spins
// a counted loop and returns the count — cheap to run, long enough
// that jobs overlap arrivals and the dispatcher has real queues to
// weigh.
func buildWork(spin int32) func() (*classfile.Program, error) {
	return func() (*classfile.Program, error) {
		p := classfile.NewProgram()
		vm.Stdlib(p)
		cls := p.NewClass("Work", nil)
		m := cls.NewMethod("main", classfile.FlagStatic, classfile.Int)
		a := m.Asm()
		loop, done := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(0)
		a.Bind(loop)
		a.LoadI(0)
		a.ConstI(spin)
		a.IfICmpGE(done)
		a.Inc(0, 1)
		a.Goto(loop)
		a.Bind(done)
		a.LoadI(0)
		a.Ret()
		a.MustBuild()
		return p, nil
	}
}

// bootFleet boots n identical small shards (1 PPE + 2 SPEs, migrate).
func bootFleet(t *testing.T, cfg Config, n int, spin int32, mutate func(*vm.Config)) *Cluster {
	t.Helper()
	shards := make([]ShardConfig, n)
	for i := range shards {
		vcfg := vm.DefaultConfig()
		vcfg.Machine.Topology = cell.Topology{
			{Kind: isa.PPE, Count: 1}, {Kind: isa.SPE, Count: 2},
		}
		if mutate != nil {
			mutate(&vcfg)
		}
		shards[i] = ShardConfig{Cfg: vcfg, Build: buildWork(spin)}
	}
	c, err := Boot(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// playScript submits jobs arriving gap cycles apart, drains, and
// returns the full deterministic report.
func playScript(t *testing.T, c *Cluster, jobs int, gap, deadline cell.Clock) string {
	t.Helper()
	for i := 0; i < jobs; i++ {
		_, _, err := c.Submit(vm.JobSpec{
			Class:    "Work",
			Method:   "main",
			Name:     fmt.Sprintf("job#%d", i),
			Arrival:  cell.Clock(i) * gap,
			Deadline: deadline,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	report, err := c.Report()
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// TestSerialParallelIdentical is the determinism contract: the same
// submission script against the same fleet produces a byte-identical
// report whether the shards advance serially on one goroutine or in
// parallel on one goroutine each.
func TestSerialParallelIdentical(t *testing.T) {
	serial := playScript(t, bootFleet(t, Config{Serial: true}, 3, 120_000, nil), 9, 60_000, 0)
	parallel := playScript(t, bootFleet(t, Config{}, 3, 120_000, nil), 9, 60_000, 0)
	if serial != parallel {
		t.Fatalf("serial and parallel reports differ:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
}

// TestGOMAXPROCSIdentical replays the parallel fleet under
// GOMAXPROCS=1 and GOMAXPROCS=NumCPU: host scheduling freedom must not
// leak into the simulation.
func TestGOMAXPROCSIdentical(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	pinned := playScript(t, bootFleet(t, Config{}, 3, 120_000, nil), 9, 60_000, 0)
	runtime.GOMAXPROCS(runtime.NumCPU())
	wide := playScript(t, bootFleet(t, Config{}, 3, 120_000, nil), 9, 60_000, 0)
	runtime.GOMAXPROCS(prev)
	if pinned != wide {
		t.Fatalf("GOMAXPROCS=1 and GOMAXPROCS=%d reports differ:\n--- 1 ---\n%s--- %d ---\n%s",
			runtime.NumCPU(), pinned, runtime.NumCPU(), wide)
	}
}

// TestStrideInvariance checks the fidelity half of the stride
// trade-off: barrier placement changes synchronization cost only,
// never the merged job table.
func TestStrideInvariance(t *testing.T) {
	tables := map[cell.Clock]string{}
	for _, stride := range []cell.Clock{100_000, DefaultEpochStride, 10_000_000} {
		c := bootFleet(t, Config{EpochStride: stride}, 3, 120_000, nil)
		playScript(t, c, 9, 60_000, 0)
		table, err := c.JobsTable()
		if err != nil {
			t.Fatal(err)
		}
		tables[stride] = table
	}
	want := tables[DefaultEpochStride]
	for stride, got := range tables {
		if got != want {
			t.Errorf("stride %d job table diverged:\n--- stride %d ---\n%s--- default ---\n%s",
				stride, stride, got, want)
		}
	}
}

// TestRoutingSpreads checks the dispatcher actually balances: a burst
// of closely-spaced jobs over two idle identical shards must not all
// land on one of them.
func TestRoutingSpreads(t *testing.T) {
	c := bootFleet(t, Config{}, 2, 120_000, nil)
	playScript(t, c, 8, 30_000, 0)
	for _, s := range c.Shards() {
		if s.Routed == 0 {
			t.Fatalf("shard %d was never routed to (distribution %v)",
				s.ID, []int{c.Shards()[0].Routed, c.Shards()[1].Routed})
		}
	}
}

// TestShedOnlyWhenAllMiss checks cluster-level shedding: a job whose
// deadline every shard's probe misses is shed at dispatch with no
// shard assignment, while a roomy deadline on the same fleet routes.
func TestShedOnlyWhenAllMiss(t *testing.T) {
	c := bootFleet(t, Config{Shed: true}, 2, 120_000, nil)
	j, verdict, err := c.Submit(vm.JobSpec{
		Class: "Work", Method: "main", Deadline: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if verdict != vm.VerdictShed || j.Shard != -1 || j.Inner != nil {
		t.Fatalf("impossible deadline: got verdict %v shard %d, want shed with no shard", verdict, j.Shard)
	}
	j, verdict, err = c.Submit(vm.JobSpec{
		Class: "Work", Method: "main", Deadline: 500_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if verdict == vm.VerdictShed || j.Shard < 0 {
		t.Fatalf("roomy deadline: got verdict %v shard %d, want routed", verdict, j.Shard)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	results, err := c.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || !results[0].Res.Shed || results[1].Res.Shed {
		t.Fatalf("merged stream wrong: %+v", results)
	}
}

// TestShedWhenAllFull checks the queue-room half: with every shard's
// bounded pending queue full, the dispatcher sheds even without a
// deadline.
func TestShedWhenAllFull(t *testing.T) {
	c := bootFleet(t, Config{}, 2, 120_000, func(cfg *vm.Config) {
		cfg.Admission = vm.AdmissionConfig{MaxPending: 1}
	})
	// Three simultaneous arrivals, two one-deep queues: the third
	// submission finds no shard with room.
	verdicts := make([]vm.Verdict, 3)
	for i := range verdicts {
		j, v, err := c.Submit(vm.JobSpec{Class: "Work", Method: "main"})
		if err != nil {
			t.Fatal(err)
		}
		verdicts[i] = v
		if i < 2 && j.Shard < 0 {
			t.Fatalf("job %d should have routed, got shard %d", i, j.Shard)
		}
	}
	if verdicts[2] != vm.VerdictShed {
		t.Fatalf("third simultaneous job: got %v, want shed (all queues full)", verdicts[2])
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestOverloadParallel floods a parallel fleet well past its service
// rate and drains it — the run the race detector vets end to end
// (goroutine-per-shard epochs, dispatcher probes between them).
func TestOverloadParallel(t *testing.T) {
	c := bootFleet(t, Config{Shed: true}, 4, 200_000, func(cfg *vm.Config) {
		cfg.Admission = vm.AdmissionConfig{MaxPending: 2, Shed: true}
	})
	report := playScript(t, c, 24, 10_000, 40_000_000)
	if !strings.Contains(report, "cluster: 4 shards") {
		t.Fatalf("report header missing:\n%s", report)
	}
	results, err := c.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 24 {
		t.Fatalf("got %d results, want 24", len(results))
	}
}

// TestCancelledContext checks the wedge guard: with the guard context
// already cancelled, the next epoch fails instead of advancing.
func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := bootFleet(t, Config{Ctx: ctx}, 2, 120_000, nil)
	if _, _, err := c.Submit(vm.JobSpec{
		Class: "Work", Method: "main", Arrival: 1_000_000,
	}); err == nil {
		t.Fatal("submit past a cancelled context should fail")
	}
}

// TestBootErrors checks the boot-time validation paths.
func TestBootErrors(t *testing.T) {
	if _, err := Boot(Config{}, nil); err == nil {
		t.Fatal("empty fleet should not boot")
	}
	if _, err := Boot(Config{}, []ShardConfig{{Cfg: vm.DefaultConfig()}}); err == nil {
		t.Fatal("shard without a builder should not boot")
	}
}
