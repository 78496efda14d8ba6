package vm

import (
	"strings"
	"testing"

	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// buildWorkerProgram creates: class Counter { static int total;
// static synchronized add(int) }, class Worker extends Thread with an
// overridden run() that adds its ID 100 times, and a main that spawns n
// workers and joins them.
func buildWorkerProgram(n int, annotateRun string) *classfile.Program {
	p := classfile.NewProgram()
	Stdlib(p)
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
	run := worker.NewMethod("run", 0, classfile.Void)
	if annotateRun != "" {
		run.Annotate(annotateRun)
	}
	{
		a := run.Asm()
		loop, done := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(1)
		a.Bind(loop)
		a.LoadI(1)
		a.ConstI(100)
		a.IfICmpGE(done)
		a.LoadRef(0)
		a.GetField(id)
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
	// Worker[] ws = new Worker[n]; start all; join all; return total.
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

func TestThreadsStartJoinSynchronized(t *testing.T) {
	// 4 workers adding ids 1..4, 100 times each: total = 100*(1+2+3+4).
	p := buildWorkerProgram(4, "")
	_, th := runMain(t, testConfig(), p, "Main", "main")
	if got := int32(uint32(th.Result)); got != 1000 {
		t.Errorf("total = %d, want 1000", got)
	}
}

func TestThreadsOnSPEsViaAnnotation(t *testing.T) {
	// Workers annotated RunOnSPE: the synchronized add() still yields the
	// exact total because monitor enter purges and exit flushes the SPE
	// software caches (the paper's JMM-conformance argument, §3.2.1).
	p := buildWorkerProgram(6, classfile.AnnRunOnSPE)
	vm, th := runMain(t, testConfig(), p, "Main", "main")
	if got := int32(uint32(th.Result)); got != 2100 {
		t.Errorf("total = %d, want 2100", got)
	}
	var speInstrs uint64
	for _, s := range vm.Machine.CoresOf(isa.SPE) {
		speInstrs += s.Stats.Instrs
	}
	if speInstrs == 0 {
		t.Error("annotated workers never ran on SPEs")
	}
	var purges uint64
	for _, s := range vm.Machine.CoresOf(isa.SPE) {
		purges += s.Stats.DataPurges
	}
	if purges == 0 {
		t.Error("synchronized blocks on SPEs must purge the data cache")
	}
}

func TestWorkersSpreadAcrossSPEs(t *testing.T) {
	p := buildWorkerProgram(6, classfile.AnnRunOnSPE)
	vm, _ := runMain(t, testConfig(), p, "Main", "main")
	active := 0
	for _, s := range vm.Machine.CoresOf(isa.SPE) {
		if s.Stats.Instrs > 0 {
			active++
		}
	}
	if active < 4 {
		t.Errorf("only %d SPEs were used for 6 workers", active)
	}
}

func TestMigrationViaAnnotatedMethod(t *testing.T) {
	p := classfile.NewProgram()
	Stdlib(p)
	c := p.NewClass("Mig", nil)
	hot := c.NewMethod("hot", classfile.FlagStatic, classfile.Int, classfile.Int).
		Annotate(classfile.AnnRunOnSPE)
	{
		a := hot.Asm()
		a.LoadI(0)
		a.ConstI(2)
		a.MulI()
		a.Ret()
		a.MustBuild()
	}
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	a.ConstI(21)
	a.InvokeStatic(hot) // migrates PPE -> SPE and back
	a.Ret()
	a.MustBuild()

	vm, th := runMain(t, testConfig(), p, "Mig", "main")
	if got := int32(uint32(th.Result)); got != 42 {
		t.Errorf("result across migration: %d", got)
	}
	main := vm.threads[0]
	if main.Migrations < 2 {
		t.Errorf("expected a round trip (2 migrations), got %d", main.Migrations)
	}
	if vm.Machine.CoresOf(isa.PPE)[0].Stats.MigrationsOut == 0 {
		t.Error("PPE should have migrated the thread out")
	}
	var speIn uint64
	for _, s := range vm.Machine.CoresOf(isa.SPE) {
		speIn += s.Stats.MigrationsIn
	}
	if speIn == 0 {
		t.Error("no SPE recorded an inbound migration")
	}
}

func TestNestedMigrationRoundTrips(t *testing.T) {
	p := classfile.NewProgram()
	Stdlib(p)
	c := p.NewClass("Mig2", nil)
	speSide := c.NewMethod("speSide", classfile.FlagStatic, classfile.Int, classfile.Int).
		Annotate(classfile.AnnRunOnSPE)
	ppeSide := c.NewMethod("ppeSide", classfile.FlagStatic, classfile.Int, classfile.Int).
		Annotate(classfile.AnnRunOnPPE)
	{
		a := ppeSide.Asm()
		a.LoadI(0)
		a.ConstI(1)
		a.AddI()
		a.Ret()
		a.MustBuild()
	}
	{
		a := speSide.Asm()
		a.LoadI(0)
		a.InvokeStatic(ppeSide) // SPE -> PPE -> back
		a.ConstI(10)
		a.MulI()
		a.Ret()
		a.MustBuild()
	}
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	a.ConstI(3)
	a.InvokeStatic(speSide)
	a.Ret()
	a.MustBuild()

	vm, th := runMain(t, testConfig(), p, "Mig2", "main")
	if got := int32(uint32(th.Result)); got != 40 {
		t.Errorf("nested migration result: %d", got)
	}
	if vm.threads[0].Migrations < 4 {
		t.Errorf("expected 4 migrations, got %d", vm.threads[0].Migrations)
	}
}

func TestJNINativeMigratesToPPE(t *testing.T) {
	p := classfile.NewProgram()
	Stdlib(p)
	c := p.NewClass("Jni", nil)
	osCall := c.NewMethod("osCall", classfile.FlagStatic|classfile.FlagNative,
		classfile.Int, classfile.Int)
	work := c.NewMethod("work", classfile.FlagStatic, classfile.Int, classfile.Int).
		Annotate(classfile.AnnRunOnSPE)
	{
		a := work.Asm()
		a.LoadI(0)
		a.InvokeStatic(osCall)
		a.Ret()
		a.MustBuild()
	}
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	a.ConstI(5)
	a.InvokeStatic(work)
	a.Ret()
	a.MustBuild()

	vm, err := New(testConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	var ranOn isa.CoreKind = isa.SPE
	vm.RegisterNative("Jni.osCall", &Native{Kind: NativeJNI, Cycles: 500, Class: isa.ClassInt,
		Fn: func(ctx *NativeCtx) error {
			ranOn = ctx.Core.Kind
			ctx.ReturnI(int32(uint32(ctx.Args[0])) * 7)
			return nil
		}})
	th, err := vm.RunMain("Jni", "main")
	if err != nil {
		t.Fatal(err)
	}
	if got := int32(uint32(th.Result)); got != 35 {
		t.Errorf("JNI result: %d", got)
	}
	if ranOn != isa.PPE {
		t.Error("JNI native must execute on the PPE")
	}
}

// waitNotifyProg builds the canonical guarded wait: waiter() takes the
// lock, starts a Setter thread and runs synchronized(lock){ while (val
// == 0) lock.wait(); }; the setter writes the plain static under the
// lock and notifies. waiterOnSPE annotates waiter() RunOnSPE, so the
// re-acquire after wait() happens on a local-store core while the
// setter writes from the PPE.
func waitNotifyProg(waiterOnSPE bool) *classfile.Program {
	p := newProg()
	threadCls := p.Lookup("java/lang/Thread")
	obj := p.Lookup("java/lang/Object")

	shared := p.NewClass("Shared", nil)
	lockF := shared.NewStaticField("lock", classfile.Ref)
	valF := shared.NewStaticField("val", classfile.Int)

	setter := p.NewClass("Setter", threadCls)
	run := setter.NewMethod("run", 0, classfile.Void)
	{
		a := run.Asm()
		a.GetStatic(lockF)
		a.MonitorEnter()
		a.ConstI(99)
		a.PutStatic(valF)
		a.GetStatic(lockF)
		a.InvokeVirtual(obj.MethodByName("notify"))
		a.GetStatic(lockF)
		a.MonitorExit()
		a.RetVoid()
		a.MustBuild()
	}

	main := p.NewClass("Main", nil)
	waiter := main.NewMethod("waiter", classfile.FlagStatic, classfile.Int)
	if waiterOnSPE {
		waiter.Annotate(classfile.AnnRunOnSPE)
	}
	{
		a := waiter.Asm()
		a.GetStatic(lockF)
		a.MonitorEnter()
		a.New(setter)
		a.InvokeVirtual(threadCls.MethodByName("start"))
		// while (val == 0) lock.wait();
		spin, ready := a.NewLabel(), a.NewLabel()
		a.Bind(spin)
		a.GetStatic(valF)
		a.IfNE(ready)
		a.GetStatic(lockF)
		a.InvokeVirtual(obj.MethodByName("wait"))
		a.Goto(spin)
		a.Bind(ready)
		a.GetStatic(lockF)
		a.MonitorExit()
		a.GetStatic(valF)
		a.Ret()
		a.MustBuild()
	}
	a := main.NewMethod("main", classfile.FlagStatic, classfile.Int).Asm()
	a.New(p.Object)
	a.PutStatic(lockF)
	a.InvokeStatic(waiter)
	a.Ret()
	a.MustBuild()
	return p
}

func TestWaitNotify(t *testing.T) {
	for _, waiterOnSPE := range []bool{false, true} {
		_, th := runMain(t, testConfig(), waitNotifyProg(waiterOnSPE), "Main", "main")
		if got := int32(uint32(th.Result)); got != 99 {
			t.Errorf("waiter on SPE %v: wait/notify result: %d", waiterOnSPE, got)
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	p := classfile.NewProgram()
	Stdlib(p)
	obj := p.Lookup("java/lang/Object")
	main := p.NewClass("Main", nil)
	m := main.NewMethod("main", classfile.FlagStatic, classfile.Void)
	a := m.Asm()
	// wait() with nobody to notify: the machine must report deadlock.
	a.New(p.Object)
	a.StoreRef(0)
	a.LoadRef(0)
	a.MonitorEnter()
	a.LoadRef(0)
	a.InvokeVirtual(obj.MethodByName("wait"))
	a.RetVoid()
	a.MustBuild()
	vm, err := New(testConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.RunMain("Main", "main"); err == nil ||
		!strings.Contains(err.Error(), "deadlock") {
		t.Errorf("want deadlock error, got %v", err)
	}
}

func TestMonitoringPolicyMigratesFPCode(t *testing.T) {
	// Unannotated FP-heavy method: after enough observed cycles the
	// monitoring policy should start placing it on SPEs (§6's proposal).
	p := classfile.NewProgram()
	Stdlib(p)
	c := p.NewClass("Hot", nil)
	fp := c.NewMethod("fp", classfile.FlagStatic, classfile.Double, classfile.Double)
	{
		a := fp.Asm()
		loop, done := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(1)
		a.Bind(loop)
		a.LoadI(1)
		a.ConstI(400)
		a.IfICmpGE(done)
		a.LoadD(0)
		a.ConstD(1.0000001)
		a.MulD()
		a.ConstD(1e-9)
		a.AddD()
		a.ConstD(1.0000002)
		a.DivD()
		a.StoreD(0)
		a.Inc(1, 1)
		a.Goto(loop)
		a.Bind(done)
		a.LoadD(0)
		a.Ret()
		a.MustBuild()
	}
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	loop, done := a.NewLabel(), a.NewLabel()
	a.ConstD(1)
	a.StoreD(0)
	a.ConstI(0)
	a.StoreI(1)
	a.Bind(loop)
	a.LoadI(1)
	a.ConstI(60)
	a.IfICmpGE(done)
	a.LoadD(0)
	a.InvokeStatic(fp)
	a.StoreD(0)
	a.Inc(1, 1)
	a.Goto(loop)
	a.Bind(done)
	a.ConstI(1)
	a.Ret()
	a.MustBuild()

	cfg := testConfig()
	cfg.Policy = DefaultMonitoringPolicy()
	vm, th := runMain(t, cfg, p, "Hot", "main")
	if int32(uint32(th.Result)) != 1 {
		t.Fatal("program failed")
	}
	if vm.threads[0].Migrations == 0 {
		t.Error("monitoring policy never migrated the FP-heavy thread")
	}
	var speFP uint64
	for _, s := range vm.Machine.CoresOf(isa.SPE) {
		speFP += s.Stats.Cycles[isa.ClassFloat]
	}
	if speFP == 0 {
		t.Error("FP work never reached an SPE")
	}
}

func TestGCWithLiveSPECachedObjects(t *testing.T) {
	// SPE workers hold references to shared arrays in their software
	// caches while the PPE main thread churns garbage hard enough to
	// force collections. The GC must flush+purge SPE caches and keep
	// every reachable object; the workers' sums must stay exact.
	p := classfile.NewProgram()
	Stdlib(p)
	threadCls := p.Lookup("java/lang/Thread")

	shared := p.NewClass("Shared", nil)
	dataF := shared.NewStaticField("data", classfile.Ref)
	sumF := shared.NewStaticField("sum", classfile.Int)
	addM := shared.NewMethod("add", classfile.FlagStatic|classfile.FlagSynchronized,
		classfile.Void, classfile.Int)
	{
		a := addM.Asm()
		a.GetStatic(sumF)
		a.LoadI(0)
		a.AddI()
		a.PutStatic(sumF)
		a.RetVoid()
		a.MustBuild()
	}

	worker := p.NewClass("W", threadCls)
	run := worker.NewMethod("run", 0, classfile.Void).Annotate(classfile.AnnRunOnSPE)
	{
		a := run.Asm()
		// sum += data[i] over 4096 elements, three passes.
		pass, passDone := a.NewLabel(), a.NewLabel()
		loop, done := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(1) // acc
		a.ConstI(0)
		a.StoreI(3) // pass
		a.Bind(pass)
		a.LoadI(3)
		a.ConstI(3)
		a.IfICmpGE(passDone)
		a.ConstI(0)
		a.StoreI(2)
		a.Bind(loop)
		a.LoadI(2)
		a.ConstI(4096)
		a.IfICmpGE(done)
		a.LoadI(1)
		a.GetStatic(dataF)
		a.LoadI(2)
		a.ALoad(classfile.ElemInt)
		a.AddI()
		a.StoreI(1)
		a.Inc(2, 1)
		a.Goto(loop)
		a.Bind(done)
		a.Inc(3, 1)
		a.Goto(pass)
		a.Bind(passDone)
		a.LoadI(1)
		a.InvokeStatic(addM)
		a.RetVoid()
		a.MustBuild()
	}

	main := p.NewClass("Main", nil)
	m := main.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	// data = new int[4096] filled with 1s.
	fill, fillDone := a.NewLabel(), a.NewLabel()
	a.ConstI(4096)
	a.NewArray(classfile.ElemInt)
	a.PutStatic(dataF)
	a.ConstI(0)
	a.StoreI(0)
	a.Bind(fill)
	a.LoadI(0)
	a.ConstI(4096)
	a.IfICmpGE(fillDone)
	a.GetStatic(dataF)
	a.LoadI(0)
	a.ConstI(1)
	a.AStore(classfile.ElemInt)
	a.Inc(0, 1)
	a.Goto(fill)
	a.Bind(fillDone)
	// start 2 workers
	a.New(worker)
	a.StoreRef(1)
	a.LoadRef(1)
	a.InvokeVirtual(threadCls.MethodByName("start"))
	a.New(worker)
	a.StoreRef(2)
	a.LoadRef(2)
	a.InvokeVirtual(threadCls.MethodByName("start"))
	// churn garbage to force GCs while workers run
	churn, churnDone := a.NewLabel(), a.NewLabel()
	a.ConstI(0)
	a.StoreI(0)
	a.Bind(churn)
	a.LoadI(0)
	a.ConstI(2000)
	a.IfICmpGE(churnDone)
	a.ConstI(1024)
	a.NewArray(classfile.ElemInt)
	a.Pop()
	a.Inc(0, 1)
	a.Goto(churn)
	a.Bind(churnDone)
	a.LoadRef(1)
	a.InvokeVirtual(threadCls.MethodByName("join"))
	a.LoadRef(2)
	a.InvokeVirtual(threadCls.MethodByName("join"))
	a.GetStatic(sumF)
	a.Ret()
	a.MustBuild()

	cfg := testConfig()
	cfg.HeapBytes = 2 << 20 // force GC pressure
	vmach, th := runMain(t, cfg, p, "Main", "main")
	if got := int32(uint32(th.Result)); got != 2*3*4096 {
		t.Errorf("sum = %d, want %d", got, 2*3*4096)
	}
	if vmach.GCCount == 0 {
		t.Error("expected GC activity during the run")
	}
}
