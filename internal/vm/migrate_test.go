package vm

import (
	"context"
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// threeKindConfig returns the small test machine on a
// ppe:1,spe:1,vpu:1 shape (no same-kind siblings, so only cross-kind
// migration can move work).
func threeKindConfig() Config {
	cfg := topoConfig(cell.Topology{
		{Kind: isa.PPE, Count: 1}, {Kind: isa.SPE, Count: 1}, {Kind: isa.VPU, Count: 1},
	})
	return cfg
}

// TestMigrateRebindsAcrossKinds drives the migration pass through the
// VM directly: four ready threads queued on the lone SPE beside an
// idle PPE and an idle VPU must produce cost-gated cross-kind
// migrations that rebind the longest-queued threads, charge the
// penalty, and bump both sides' counters.
func TestMigrateRebindsAcrossKinds(t *testing.T) {
	vm, err := New(threeKindConfig(), newProg())
	if err != nil {
		t.Fatal(err)
	}
	var queued []*Thread
	for i := 0; i < 4; i++ {
		th := framedThread(t, vm, "w", isa.SPE, 0)
		vm.enqueue(th)
		queued = append(queued, th)
	}

	vm.pickNext()
	ppe := vm.Machine.CoreAt(isa.PPE, 0)
	spe := vm.Machine.CoreAt(isa.SPE, 0)
	vpu := vm.Machine.CoreAt(isa.VPU, 0)
	if spe.Stats.MigrationsOut == 0 {
		t.Fatal("an overloaded SPE beside idle cross-kind cores never migrated anything out")
	}
	if ppe.Stats.MigrationsIn == 0 {
		t.Error("the idle PPE took nothing from the overloaded SPE")
	}
	if got := ppe.Stats.MigrationsIn + vpu.Stats.MigrationsIn; got != spe.Stats.MigrationsOut {
		t.Errorf("migrations out=%d but in=%d", spe.Stats.MigrationsOut, got)
	}
	// The longest-queued thread — the youngest ready one, whose FIFO
	// start was furthest out — moved first, was rebound, and pays the
	// penalty before it may start.
	moved := queued[3]
	if moved.Kind != isa.PPE {
		t.Errorf("longest-queued thread migrated to %v, want the PPE (visited first)", moved.Kind)
	}
	if moved.ReadyAt < vm.Cfg.MigrateCycles {
		t.Errorf("migrated thread ReadyAt = %d; the %d-cycle migration penalty was not charged",
			moved.ReadyAt, vm.Cfg.MigrateCycles)
	}
	// A thread landing on a local-store kind must re-warm its caches.
	for _, th := range queued {
		if th.Kind.UsesLocalStore() && th.Kind != isa.SPE && !th.needEnsure {
			t.Errorf("thread migrated to %v without a code-cache ensure", th.Kind)
		}
	}
	// Steals cannot have fired: no core has a same-kind sibling.
	for _, c := range vm.Machine.Cores() {
		if c.Stats.StealsIn != 0 || c.Stats.StealsOut != 0 {
			t.Errorf("%v stole on a machine with no same-kind siblings", c)
		}
	}
}

// TestMigrateGateLosesInVM: with a prohibitive MigrateCycles penalty
// the same overload produces zero migrations — the cost gate, not the
// imbalance, decides.
func TestMigrateGateLosesInVM(t *testing.T) {
	cfg := threeKindConfig()
	cfg.MigrateCycles = 50_000_000
	vm, err := New(cfg, newProg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		th := framedThread(t, vm, "w", isa.SPE, 0)
		vm.enqueue(th)
	}
	vm.pickNext()
	for _, c := range vm.Machine.Cores() {
		if c.Stats.MigrationsIn != 0 || c.Stats.MigrationsOut != 0 {
			t.Errorf("%v: migrations in/out = %d/%d with a losing cost gate",
				c, c.Stats.MigrationsIn, c.Stats.MigrationsOut)
		}
	}
}

// buildComputeWorkers returns a program whose n SPE-annotated workers
// do id-proportional *compute-bound* work (worker id counts to
// id*iters, then reports the count through one final synchronized
// add), so the SPE queues stay deep with ready threads — the overload
// shape cross-kind migration exists to repair. The expected total is
// iters * n*(n+1)/2.
func buildComputeWorkers(n, iters int) *classfile.Program {
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
		// bound = id * iters; acc counts iterations.
		a.LoadRef(0)
		a.GetField(id)
		a.ConstI(int32(iters))
		a.MulI()
		a.StoreI(2)
		a.ConstI(0)
		a.StoreI(1)
		a.ConstI(0)
		a.StoreI(3)
		a.Bind(loop)
		a.LoadI(1)
		a.LoadI(2)
		a.IfICmpGE(done)
		a.Inc(3, 1)
		a.Inc(1, 1)
		a.Goto(loop)
		a.Bind(done)
		a.LoadI(3)
		a.InvokeStatic(add)
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

// migrateRun executes the compute-bound imbalanced-worker program on
// the ppe:1,spe:4,vpu:2 topology and returns the checksum, final clock,
// per-core instruction counts and machine-wide migration count.
func migrateRun(t *testing.T, workers, iters int) (int32, cell.Clock, []uint64, uint64) {
	t.Helper()
	cfg := topoConfig(cell.Topology{
		{Kind: isa.PPE, Count: 1}, {Kind: isa.SPE, Count: 4}, {Kind: isa.VPU, Count: 2},
	})
	vm, th := runMain(t, cfg, buildComputeWorkers(workers, iters), "Main", "main")
	if th.Trap != nil {
		t.Fatal(th.Trap)
	}
	var instrs []uint64
	var migrations uint64
	for _, c := range vm.Machine.Cores() {
		instrs = append(instrs, c.Stats.Instrs)
		migrations += c.Stats.MigrationsIn
	}
	return int32(uint32(th.Result)), vm.Machine.MaxClock(), instrs, migrations
}

// TestMigrateSchedulerEndToEnd replays an imbalanced multi-threaded
// workload on ppe:1,spe:4,vpu:2 twice: the checksum must be right,
// cross-kind migrations must actually fire (the workers are annotated
// for the SPE pool, so every migration event is the scheduler's), and
// both replays must agree bit-for-bit on checksum, machine time,
// per-core instruction counts and migration counts.
func TestMigrateSchedulerEndToEnd(t *testing.T) {
	const workers, iters = 12, 400
	const want = iters * (workers * (workers + 1) / 2)

	sum1, clock1, instrs1, mig1 := migrateRun(t, workers, iters)
	if sum1 != want {
		t.Errorf("migrate checksum = %d, want %d", sum1, want)
	}
	if mig1 == 0 {
		t.Error("12 SPE-pinned workers beside idle PPE/VPUs should trigger at least one migration")
	}

	sum2, clock2, instrs2, mig2 := migrateRun(t, workers, iters)
	if sum1 != sum2 || clock1 != clock2 || mig1 != mig2 {
		t.Errorf("migrate runs diverged: sum %d/%d clock %d/%d migrations %d/%d",
			sum1, sum2, clock1, clock2, mig1, mig2)
	}
	for i := range instrs1 {
		if instrs1[i] != instrs2[i] {
			t.Errorf("core %d instruction counts differ across migrate runs: %d vs %d",
				i, instrs1[i], instrs2[i])
		}
	}
}

// TestMigrateMidLoopKeepsPC: a cross-kind migration swaps each frame's
// compiled method and nothing else of it. A worker stopped between quanta
// in the middle of its counting loop is moved SPE -> PPE by the scheduler
// hook itself; every frame must come out on PPE code at the PC it had,
// and the run must still end in the right sum.
func TestMigrateMidLoopKeepsPC(t *testing.T) {
	const workers, iters = 2, 4000
	cfg := threeKindConfig()
	// Nothing moves a thread but this test: no core has a same-kind
	// sibling to steal from, and the cost gate never pays for a move.
	cfg.MigrateCycles = 1 << 40
	vm, err := New(cfg, buildComputeWorkers(workers, iters))
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := vm.Submit(JobSpec{Class: "Main", Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	var th *Thread
	for th == nil {
		if err := vm.RunUntil(vm.Machine.MaxClock() + 10_000); err != nil {
			t.Fatal(err)
		}
		if j.Done() {
			t.Fatal("the job finished before a worker was caught mid-loop")
		}
		for _, w := range j.threads[1:] {
			if w.State == StateReady && w.Kind == isa.SPE && w.top().PC > 9 {
				th = w // past the loop's set-up, inside it
			}
		}
	}
	spe, ppe := vm.Machine.CoreAt(isa.SPE, 0), vm.Machine.CoreAt(isa.PPE, 0)
	if _, ok := vm.recompileEstimate(th, ppe); !ok {
		t.Fatal("a ready thread between instructions must be migratable")
	}
	var pcs []int
	for _, f := range th.Frames {
		pcs = append(pcs, f.PC)
	}
	vm.scheduler.Remove(spe, th)
	if _, ok := vm.onMigrate(th, spe, ppe, spe.Now); !ok {
		t.Fatal("migration hook vetoed the move")
	}
	for i, f := range th.Frames {
		if f.CM.Target != isa.PPE || f.PC != pcs[i] {
			t.Errorf("frame %d: on %v code at pc %d, want PPE code at pc %d", i, f.CM.Target, f.PC, pcs[i])
		}
	}
	vm.enqueue(th)
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if got, want := int32(uint32(j.Root().Result)), int32(iters*workers*(workers+1)/2); got != want {
		t.Errorf("sum after a mid-loop migration = %d, want %d", got, want)
	}
	if th.Migrations != 1 || th.Kind != isa.PPE {
		t.Errorf("thread migrated %d times and ended on %v, want once, on the PPE", th.Migrations, th.Kind)
	}
}

// callAcross makes Returner.run's call to the RunOnPPE Ret.make
// (buildReturnProg) from a thread running run on the SPE, through
// invoke, and takes the thread off the PPE queue the call migrated it
// to — where the scheduler's migration pass finds a thread it moves.
func callAcross(t *testing.T, v *VM) *Thread {
	t.Helper()
	run := v.Prog.Lookup("Returner").MethodByName("run")
	mk := v.Prog.Lookup("Ret").MethodByName("make")
	cm, _, err := v.compileFor(isa.SPE, run)
	if err != nil {
		t.Fatal(err)
	}
	th := v.newThread(&Job{}, "w")
	th.Kind, th.CoreID, th.State = isa.SPE, 0, StateRunning
	f := newFrame(cm)
	v.profileFrame(f)
	f.PC = 1 // past run's constant, on the call
	f.push(retValue)
	th.pushFrame(f)
	if err := v.invoke(v.Machine.CoreAt(isa.SPE, 0), th, f, mk); err != nil {
		t.Fatal(err)
	}
	if th.Kind != isa.PPE || th.Migrations != 1 || th.top().CM.M != mk {
		t.Fatalf("the call to make did not migrate to the PPE: on %v after %d migrations", th.Kind, th.Migrations)
	}
	v.scheduler.Remove(v.Machine.CoreAt(isa.PPE, 0), th)
	return th
}

// TestReturnToMovedCallerIsPlain: once the scheduler has moved a callee
// back onto its caller's kind, no migration point is left between them,
// and the return is a plain one — no migration counted, no migration
// cost, no trip through the queue. A marker frame restating the
// caller's kind made this return "migrate" from the SPE to the SPE.
func TestReturnToMovedCallerIsPlain(t *testing.T) {
	v, err := New(threeKindConfig(), buildReturnProg())
	if err != nil {
		t.Fatal(err)
	}
	th := callAcross(t, v)
	spe, ppe := v.Machine.CoreAt(isa.SPE, 0), v.Machine.CoreAt(isa.PPE, 0)
	if _, ok := v.onMigrate(th, ppe, spe, ppe.Now); !ok || th.Kind != isa.SPE || th.Migrations != 2 {
		t.Fatalf("the scheduler's move back to the SPE: ok=%v, on %v after %d migrations", ok, th.Kind, th.Migrations)
	}
	th.State = StateRunning
	readyAt := th.ReadyAt
	v.returnFrom(spe, th, 7, true)
	if th.Migrations != 2 || th.job.Stats.Migrations != 2 {
		t.Errorf("the return to run on its own kind counted a migration: %d on the thread, %d on the job",
			th.Migrations, th.job.Stats.Migrations)
	}
	if th.State != StateRunning || th.ReadyAt != readyAt {
		t.Errorf("the return re-queued the thread (state %v, ready at %d, was %d)", th.State, th.ReadyAt, readyAt)
	}
	if f := th.top(); len(th.Frames) != 1 || f.SP != 1 || f.Stack[0] != 7 {
		t.Errorf("run does not hold make's value: %d frames, top stack %v", len(th.Frames), f.Stack[:f.SP])
	}
}

// TestMoveLeavesCallerCode: a scheduler move of a thread standing in a
// callee that migrated recompiles only the frames above that migration
// point. The caller keeps its own kind's code, and the callee's return
// goes back to that kind. Recompiling every frame gave the caller VPU
// code, which it then ran on the SPE.
func TestMoveLeavesCallerCode(t *testing.T) {
	v, err := New(threeKindConfig(), buildReturnProg())
	if err != nil {
		t.Fatal(err)
	}
	th := callAcross(t, v)
	ppe, vpu := v.Machine.CoreAt(isa.PPE, 0), v.Machine.CoreAt(isa.VPU, 0)
	if _, ok := v.onMigrate(th, ppe, vpu, ppe.Now); !ok || th.Kind != isa.VPU {
		t.Fatalf("the scheduler's move to the VPU: ok=%v, on %v", ok, th.Kind)
	}
	if run, mk := th.Frames[0].CM.Target, th.top().CM.Target; run != isa.SPE || mk != isa.VPU {
		t.Fatalf("after the move run has %v code and make %v code, want SPE and VPU", run, mk)
	}
	th.State = StateRunning
	v.returnFrom(vpu, th, 7, true)
	if th.Kind != isa.SPE || th.State != StateReady || th.Migrations != 3 {
		t.Errorf("make's return: on %v, state %v, %d migrations; want queued for the SPE after 3",
			th.Kind, th.State, th.Migrations)
	}
}

// TestRehydrateKeepsCallerKind: a job frozen while a thread stands in a
// callee that migrated lands with each frame compiled for the kind its
// image names, so the caller resumes on its kind in its kind's code.
// Compiling every frame for the thread's kind brought run back to the
// SPE holding PPE code.
func TestRehydrateKeepsCallerKind(t *testing.T) {
	src, err := New(testConfig(), buildReturnProg())
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := src.Submit(JobSpec{Name: "ret", Class: "Ret", Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	err = src.runWhile(func() bool {
		return j.done || len(j.threads) == 2 && j.threads[1].State == StateReady && j.threads[1].Kind == isa.PPE
	})
	if err != nil || j.done {
		t.Fatalf("the worker never queued on the PPE inside make: done=%v err=%v", j.done, err)
	}
	img, err := src.Freeze(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := New(testConfig(), buildReturnProg())
	if err != nil {
		t.Fatal(err)
	}
	dj, err := dst.Rehydrate(img, 0, JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	w := dj.threads[1]
	if w.Kind != isa.PPE {
		t.Fatalf("the worker landed on %v, want the PPE it was frozen on", w.Kind)
	}
	if err := dst.runWhile(func() bool { return dj.done || w.State == StateReady && w.Kind == isa.SPE }); err != nil || dj.done {
		t.Fatalf("the worker never queued back on the SPE: done=%v err=%v", dj.done, err)
	}
	if got := w.Frames[0].CM.Target; got != isa.SPE {
		t.Errorf("run resumes on the SPE in %v code", got)
	}
	if _, err := dj.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := int32(uint32(dj.Root().Result)); got != retValue {
		t.Errorf("result through the hand-off = %d, want %d", got, retValue)
	}
}
