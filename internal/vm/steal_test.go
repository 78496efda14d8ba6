package vm

import (
	"slices"
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// stealConfig returns the small test machine on a 1 PPE + 2 SPE shape.
func stealConfig() Config { return topoConfig(cell.PS3Topology(2)) }

// TestStealRebindsThread drives the scheduler through the VM directly:
// three ready threads queued on SPE0 and an idle SPE1 must produce
// exactly one steal that rebinds the stolen thread, charges the
// penalty, and bumps both cores' counters.
func TestStealRebindsThread(t *testing.T) {
	vm, err := New(stealConfig(), newProg())
	if err != nil {
		t.Fatal(err)
	}
	var queued []*Thread
	for i := 0; i < 3; i++ {
		th := vm.newThread(&Job{}, "w")
		th.Kind, th.CoreID = isa.SPE, 0
		vm.enqueue(th)
		queued = append(queued, th)
	}

	core, next := vm.pickNext()
	spe0, spe1 := vm.Machine.CoreAt(isa.SPE, 0), vm.Machine.CoreAt(isa.SPE, 1)
	if spe1.Stats.StealsIn != 1 || spe0.Stats.StealsOut != 1 {
		t.Fatalf("steals in/out = %d/%d, want 1/1", spe1.Stats.StealsIn, spe0.Stats.StealsOut)
	}
	// The oldest queued thread was stolen; the pick itself stays on the
	// loaded core, whose oldest remaining thread runs first.
	stolen := queued[0]
	if stolen.CoreID != 1 {
		t.Errorf("stolen thread bound to SPE%d, want SPE1", stolen.CoreID)
	}
	if stolen.ReadyAt < vm.Cfg.StealCycles {
		t.Errorf("stolen thread ReadyAt = %d; the %d-cycle steal penalty was not charged",
			stolen.ReadyAt, vm.Cfg.StealCycles)
	}
	if !stolen.needEnsure {
		t.Error("stolen thread must re-warm the thief's code cache")
	}
	if core != spe0 || next != queued[1] {
		t.Errorf("pick = %v/%v, want SPE0 with the second-queued thread", core, next)
	}
	// The PPE never steals from the SPE pool.
	if vm.Machine.CoreAt(isa.PPE, 0).Stats.StealsIn != 0 {
		t.Error("PPE stole across kinds")
	}
}

// TestStealStaysWithinKind queues SPE work on a three-kind machine and
// verifies neither the PPE nor the idle VPUs touch it.
func TestStealStaysWithinKind(t *testing.T) {
	topo := cell.Topology{
		{Kind: isa.PPE, Count: 1}, {Kind: isa.SPE, Count: 1}, {Kind: isa.VPU, Count: 2},
	}
	cfg := topoConfig(topo)
	vm, err := New(cfg, newProg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		th := vm.newThread(&Job{}, "w")
		th.Kind, th.CoreID = isa.SPE, 0
		vm.enqueue(th)
	}
	vm.pickNext()
	for _, c := range vm.Machine.Cores() {
		if c.Stats.StealsIn != 0 || c.Stats.StealsOut != 0 {
			t.Errorf("%v: steals %d/%d; a lone SPE has no same-kind sibling to trade with",
				c, c.Stats.StealsIn, c.Stats.StealsOut)
		}
	}
}

// buildImbalancedWorkers returns a program whose n SPE-annotated
// workers do id-proportional work (worker id loops id*iters times,
// adding 1 per iteration through the synchronized counter), so
// placement-time balancing necessarily leaves the SPE queues uneven.
// The expected total is iters * n*(n+1)/2.
func buildImbalancedWorkers(n, iters int) *classfile.Program {
	p := newProg()
	threadCls := p.Lookup("java/lang/Thread")

	counter := p.NewClass("Counter", nil)
	total := counter.NewStaticField("total", classfile.Int)
	add := counter.NewMethod("add", classfile.FlagStatic|classfile.FlagSynchronized,
		classfile.Void, classfile.Int)
	{
		a := add.Asm()
		a.GetStatic(total)
		a.LoadI(0)
		a.AddI()
		a.PutStatic(total)
		a.RetVoid()
		a.MustBuild()
	}

	worker := p.NewClass("Worker", threadCls)
	id := worker.NewField("id", classfile.Int)
	run := worker.NewMethod("run", 0, classfile.Void).Annotate(classfile.AnnRunOnSPE)
	{
		a := run.Asm()
		loop, done := a.NewLabel(), a.NewLabel()
		// bound = id * iters
		a.LoadRef(0)
		a.GetField(id)
		a.ConstI(int32(iters))
		a.MulI()
		a.StoreI(2)
		a.ConstI(0)
		a.StoreI(1)
		a.Bind(loop)
		a.LoadI(1)
		a.LoadI(2)
		a.IfICmpGE(done)
		a.ConstI(1)
		a.InvokeStatic(add)
		a.Inc(1, 1)
		a.Goto(loop)
		a.Bind(done)
		a.RetVoid()
		a.MustBuild()
	}

	main := p.NewClass("Main", nil)
	m := main.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	a.ConstI(int32(n))
	a.ANewArray(worker)
	a.StoreRef(0)
	loop1, done1 := a.NewLabel(), a.NewLabel()
	a.ConstI(0)
	a.StoreI(1)
	a.Bind(loop1)
	a.LoadI(1)
	a.ConstI(int32(n))
	a.IfICmpGE(done1)
	a.New(worker)
	a.StoreRef(2)
	a.LoadRef(2)
	a.LoadI(1)
	a.ConstI(1)
	a.AddI()
	a.PutField(id)
	a.LoadRef(0)
	a.LoadI(1)
	a.LoadRef(2)
	a.AStore(classfile.ElemRef)
	a.LoadRef(2)
	a.InvokeVirtual(threadCls.MethodByName("start"))
	a.Inc(1, 1)
	a.Goto(loop1)
	a.Bind(done1)
	loop2, done2 := a.NewLabel(), a.NewLabel()
	a.ConstI(0)
	a.StoreI(1)
	a.Bind(loop2)
	a.LoadI(1)
	a.ConstI(int32(n))
	a.IfICmpGE(done2)
	a.LoadRef(0)
	a.LoadI(1)
	a.ALoad(classfile.ElemRef)
	a.InvokeVirtual(threadCls.MethodByName("join"))
	a.Inc(1, 1)
	a.Goto(loop2)
	a.Bind(done2)
	a.GetStatic(total)
	a.Ret()
	a.MustBuild()
	return p
}

// stealRun executes the imbalanced-worker program and returns the
// checksum, final clock, per-core instruction counts and total steals.
func stealRun(t *testing.T) (int32, cell.Clock, []uint64, uint64) {
	t.Helper()
	vm, th := runMain(t, stealConfig(), buildImbalancedWorkers(6, 120), "Main", "main")
	if th.Trap != nil {
		t.Fatal(th.Trap)
	}
	var instrs []uint64
	var steals uint64
	for _, c := range vm.Machine.Cores() {
		instrs = append(instrs, c.Stats.Instrs)
		steals += c.Stats.StealsIn
	}
	return int32(uint32(th.Result)), vm.Machine.MaxClock(), instrs, steals
}

// TestStealSchedulerEndToEnd runs an imbalanced multi-threaded
// workload twice: it must actually steal, keep its checksum, and be
// bit-for-bit deterministic across repeats.
func TestStealSchedulerEndToEnd(t *testing.T) {
	const want = 120 * (6 * 7 / 2) // iters * sum(1..6)

	sum1, clock1, instrs1, steals1 := stealRun(t)
	if sum1 != want {
		t.Errorf("steal checksum = %d, want %d", sum1, want)
	}
	if steals1 == 0 {
		t.Error("imbalanced workers on 2 SPEs should trigger at least one steal")
	}

	sum2, clock2, instrs2, steals2 := stealRun(t)
	if sum1 != sum2 || clock1 != clock2 || steals1 != steals2 {
		t.Errorf("steal runs diverged: sum %d/%d clock %d/%d steals %d/%d",
			sum1, sum2, clock1, clock2, steals1, steals2)
	}
	for i := range instrs1 {
		if instrs1[i] != instrs2[i] {
			t.Errorf("core %d instruction counts differ across steal runs: %d vs %d",
				i, instrs1[i], instrs2[i])
		}
	}
}

// TestJoinWakeCyclesKnob verifies the joiner-wake latency: a thread
// blocked in join() becomes ready exactly joinWakeCycles after the
// thread it waits on terminates, by the clock of the core it ended on.
func TestJoinWakeCyclesKnob(t *testing.T) {
	vm, err := New(testConfig(), buildWorkerProgram(2, ""))
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := vm.Submit(JobSpec{Class: "Main", Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	// Between scheduling rounds, remember who is blocked joining whom;
	// once a joinee has terminated, its joiners must have been woken.
	joiners := map[*Thread][]*Thread{}
	woken := 0
	err = vm.runWhile(func() bool {
		for joinee, ts := range joiners {
			if joinee.State != StateTerminated {
				continue
			}
			end := vm.coreFor(joinee.Kind, joinee.CoreID).Now
			for _, jt := range ts {
				if jt.ReadyAt != end+joinWakeCycles {
					t.Errorf("%s woke at %d, want %s's end %d + %d", jt.Name, jt.ReadyAt, joinee.Name, end, joinWakeCycles)
				}
				woken++
			}
			delete(joiners, joinee)
		}
		for _, th := range vm.threads {
			if th.State != StateTerminated && len(th.joiners) > 0 {
				joiners[th] = slices.Clone(th.joiners)
			}
		}
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	if woken == 0 {
		t.Fatal("no thread ever blocked in join(); the program no longer exercises the wake")
	}
}

// TestUnknownSchedulerRejected: a bad Config.Scheduler fails at boot,
// naming the registered options.
func TestUnknownSchedulerRejected(t *testing.T) {
	cfg := testConfig()
	cfg.Scheduler = "mystery"
	if _, err := New(cfg, newProg()); err == nil {
		t.Fatal("unknown scheduler should fail VM construction")
	}
}
