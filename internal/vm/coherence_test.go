package vm

import (
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
	"herajvm/internal/sched"
)

// TestMemoryModelEdges is the litmus table of the memory-model seam
// (coherence.go): every edge constant is named by at least one row,
// each a guest placed so its edges have a local-store core on at least
// one side and whose result is wrong if an edge's release or acquire is
// missing. Every row runs once per legacy scheduler name (each boots
// the one scheduler) and must both produce the value and have crossed
// the edges it names. A constant without a
// row fails the test, so a new edge cannot land untested.
func TestMemoryModelEdges(t *testing.T) {
	onSPEs := func(cfg *Config) { cfg.Policy = FixedPolicy{Kind: isa.SPE} }
	rows := []struct {
		name    string
		edges   []edge
		prog    func() *classfile.Program
		class   string
		cfg     func(*Config)
		natives func(*VM)
		want    int32
		wantOut string
	}{
		// The waiter re-acquires the monitor on an SPE after wait(); without
		// the acquire it re-reads its stale val, waits again: ErrDeadlock.
		{name: "monitor-wait", edges: []edge{edgeMonitor}, class: "Main", want: 99,
			prog: func() *classfile.Program { return waitNotifyProg(true) }},
		{name: "volatile", edges: []edge{edgeVolatile}, class: "Main", want: 12345, prog: volatileFlagProg, cfg: twoSPEs},
		{name: "start-join", edges: []edge{edgeStart, edgeJoin}, class: "Coh",
			want: startJoinN * (startJoinN + 1) / 2, prog: startJoinProg, cfg: twoSPEs},
		// A marker migration is a hand-off in both directions, and so is the
		// JNI round trip; single-threaded guests, so only program order is
		// at stake.
		{name: "handoff-spe-to-ppe", edges: []edge{edgeHandoff}, class: "Mig", want: 42,
			prog: func() *classfile.Program { return markerMigrationProg(true) }},
		{name: "handoff-ppe-to-spe", edges: []edge{edgeHandoff}, class: "Mig", want: 2,
			prog: func() *classfile.Program { return markerMigrationProg(false) },
			cfg:  func(cfg *Config) { cfg.Machine.Topology = cell.PS3Topology(1) }},
		{name: "handoff-jni", edges: []edge{edgeHandoff}, class: "Jni", want: 35, prog: jniReadsArrayProg,
			natives: func(vm *VM) {
				vm.RegisterNative("Jni.osCall", &Native{Kind: NativeJNI, Cycles: 500, Class: isa.ClassInt,
					Fn: func(ctx *NativeCtx) error {
						arr := Ref(ctx.Args[0])
						ctx.ReturnI(int32(ctx.VM.Machine.Mem.Read32(arr+isa.HeaderBytes)) * 7)
						return nil
					}})
			}},
		{name: "kernel", edges: []edge{edgeKernel}, class: "KMain", want: kernelExpected(600),
			prog: func() *classfile.Program { return buildKernelProg(600) }, cfg: onSPEs},
		{name: "syscall", edges: []edge{edgeSyscall}, class: "SB", wantOut: "x=-4096!\n",
			prog: stringBuilderProg, cfg: onSPEs},
		{name: "world-stop", edges: []edge{edgeWorldStop}, class: "Hold", want: 7, prog: gcHoldsDirtyRefProg,
			cfg: func(cfg *Config) { onSPEs(cfg); cfg.HeapBytes = 2 << 20 }},
		{name: "runtime-arraycopy", edges: []edge{edgeRuntime}, class: "Copy", want: 17,
			prog: arraycopyProg, cfg: onSPEs},
	}
	covered := map[edge]bool{}
	for _, r := range rows {
		for _, e := range r.edges {
			covered[e] = true
		}
		for _, s := range sched.Names() {
			t.Run(r.name+"/"+s, func(t *testing.T) {
				cfg := testConfig()
				cfg.Scheduler = s
				if r.cfg != nil {
					r.cfg(&cfg)
				}
				vm, err := New(cfg, r.prog())
				if err != nil {
					t.Fatal(err)
				}
				if r.natives != nil {
					r.natives(vm)
				}
				th, err := runEntry(vm, r.class, "main")
				if err != nil {
					t.Fatal(err)
				}
				if got := th.job.Output(); got != r.wantOut {
					t.Errorf("printed %q, want %q", got, r.wantOut)
				}
				if got := int32(uint32(th.Result)); got != r.want {
					t.Errorf("main returned %d, want %d (a stale cache crossed the edge)", got, r.want)
				}
				for _, e := range r.edges {
					if vm.edgeCrossings[e] == 0 {
						t.Errorf("the guest never crossed edge %d on a local-store core", e)
					}
				}
			})
		}
	}
	for e := edge(1); e < numEdges; e++ {
		if !covered[e] {
			t.Errorf("edge %d has no litmus row", e)
		}
	}
}

// twoSPEs forces every thread onto a two-SPE machine's local-store cores.
func twoSPEs(cfg *Config) {
	cfg.Machine.Topology = cell.Topology{{Kind: isa.PPE, Count: 1}, {Kind: isa.SPE, Count: 2}}
	cfg.Policy = FixedPolicy{Kind: isa.SPE}
}

// markerMigrationProg is one thread crossing kinds through an annotated
// call. speWrites: main allocates int[8], a RunOnSPE static stores
// arr[0] = 42 and returns, main reads arr[0] on the PPE. Otherwise the
// reverse: the PPE writes 1, a RunOnSPE static reads, the PPE writes 2,
// the SPE reads again (on a one-SPE machine, the same core's cache).
func markerMigrationProg(speWrites bool) *classfile.Program {
	p := newProg()
	c := p.NewClass("Mig", nil)
	store := c.NewMethod("store", classfile.FlagStatic, classfile.Void, classfile.Ref).
		Annotate(classfile.AnnRunOnSPE)
	{
		a := store.Asm()
		a.LoadRef(0)
		a.ConstI(0)
		a.ConstI(42)
		a.AStore(classfile.ElemInt)
		a.RetVoid()
		a.MustBuild()
	}
	read := c.NewMethod("read", classfile.FlagStatic, classfile.Int, classfile.Ref).
		Annotate(classfile.AnnRunOnSPE)
	{
		a := read.Asm()
		a.LoadRef(0)
		a.ConstI(0)
		a.ALoad(classfile.ElemInt)
		a.Ret()
		a.MustBuild()
	}
	a := c.NewMethod("main", classfile.FlagStatic, classfile.Int).Asm()
	a.ConstI(8)
	a.NewArray(classfile.ElemInt)
	a.StoreRef(0)
	if speWrites {
		a.LoadRef(0)
		a.InvokeStatic(store)
		a.LoadRef(0)
		a.ConstI(0)
		a.ALoad(classfile.ElemInt)
	} else {
		for _, v := range []int32{1, 2} {
			a.LoadRef(0)
			a.ConstI(0)
			a.ConstI(v)
			a.AStore(classfile.ElemInt)
			a.LoadRef(0)
			a.InvokeStatic(read)
			if v == 1 {
				a.Pop()
			}
		}
	}
	a.Ret()
	a.MustBuild()
	return p
}

// jniReadsArrayProg is TestJNINativeMigratesToPPE's shape with data: a
// RunOnSPE method stores arr[0] = 5 and hands arr to a JNI native,
// which runs on the PPE and reads it from main memory.
func jniReadsArrayProg() *classfile.Program {
	p := newProg()
	c := p.NewClass("Jni", nil)
	osCall := c.NewMethod("osCall", classfile.FlagStatic|classfile.FlagNative,
		classfile.Int, classfile.Ref)
	work := c.NewMethod("work", classfile.FlagStatic, classfile.Int, classfile.Ref).
		Annotate(classfile.AnnRunOnSPE)
	{
		a := work.Asm()
		a.LoadRef(0)
		a.ConstI(0)
		a.ConstI(5)
		a.AStore(classfile.ElemInt)
		a.LoadRef(0)
		a.InvokeStatic(osCall)
		a.Ret()
		a.MustBuild()
	}
	a := c.NewMethod("main", classfile.FlagStatic, classfile.Int).Asm()
	a.ConstI(8)
	a.NewArray(classfile.ElemInt)
	a.InvokeStatic(work)
	a.Ret()
	a.MustBuild()
	return p
}

// gcHoldsDirtyRefProg keeps a Box alive only through a field written
// on an SPE and still dirty in its cache (the Box itself was written
// back by an empty synchronized block), then churns garbage until the
// collector runs, and re-reads the field through main memory after a
// second synchronized block: the world-stop must write the field back
// before the mark reads main memory, or the Box is swept and reused.
func gcHoldsDirtyRefProg() *classfile.Program {
	p := newProg()
	box := p.NewClass("Box", nil)
	valF := box.NewField("val", classfile.Int)
	holder := p.NewClass("Holder", nil)
	refF := holder.NewField("ref", classfile.Ref)
	// locals: 0=holder 1=i 2=box
	a := p.NewClass("Hold", nil).NewMethod("main", classfile.FlagStatic, classfile.Int).Asm()
	emptySync := func() {
		a.LoadRef(0)
		a.MonitorEnter()
		a.LoadRef(0)
		a.MonitorExit()
	}
	a.New(holder)
	a.StoreRef(0)
	a.New(box)
	a.Dup()
	a.StoreRef(2)
	a.ConstI(7)
	a.PutField(valF)
	emptySync()
	a.LoadRef(0)
	a.LoadRef(2)
	a.PutField(refF)
	a.Null()
	a.StoreRef(2)
	churn, done := a.NewLabel(), a.NewLabel()
	a.ConstI(0)
	a.StoreI(1)
	a.Bind(churn)
	a.LoadI(1)
	a.ConstI(2000)
	a.IfICmpGE(done)
	a.ConstI(1024)
	a.NewArray(classfile.ElemInt)
	a.Pop()
	a.Inc(1, 1)
	a.Goto(churn)
	a.Bind(done)
	emptySync()
	a.LoadRef(0)
	a.GetField(refF)
	a.GetField(valF)
	a.Ret()
	a.MustBuild()
	return p
}

// arraycopyProg fills src and primes a clean copy of dst[0] in the
// caller's cache, then lets the runtime copy src over dst through main
// memory: the copy must see the dirty src, and the caller the new dst.
func arraycopyProg() *classfile.Program {
	const n = 16
	p := newProg()
	arraycopy := p.Lookup("java/lang/System").MethodByName("arraycopy")
	// locals: 0=src 1=dst 2=i
	a := p.NewClass("Copy", nil).NewMethod("main", classfile.FlagStatic, classfile.Int).Asm()
	a.ConstI(n)
	a.NewArray(classfile.ElemInt)
	a.StoreRef(0)
	a.ConstI(n)
	a.NewArray(classfile.ElemInt)
	a.StoreRef(1)
	fill, filled := a.NewLabel(), a.NewLabel()
	a.ConstI(0)
	a.StoreI(2)
	a.Bind(fill)
	a.LoadI(2)
	a.ConstI(n)
	a.IfICmpGE(filled)
	a.LoadRef(0)
	a.LoadI(2)
	a.LoadI(2)
	a.ConstI(1)
	a.AddI()
	a.AStore(classfile.ElemInt)
	a.Inc(2, 1)
	a.Goto(fill)
	a.Bind(filled)
	a.LoadRef(1)
	a.ConstI(0)
	a.ALoad(classfile.ElemInt)
	a.Pop()
	a.LoadRef(0)
	a.ConstI(0)
	a.LoadRef(1)
	a.ConstI(0)
	a.ConstI(n)
	a.InvokeStatic(arraycopy)
	a.LoadRef(1)
	a.ConstI(0)
	a.ALoad(classfile.ElemInt)
	a.LoadRef(1)
	a.ConstI(n - 1)
	a.ALoad(classfile.ElemInt)
	a.AddI()
	a.Ret()
	a.MustBuild()
	return p
}

// volatileFlagProg is flag passing: the consumer primes a copy of the
// plain data in its cache, starts the producer and spins (boundedly, so
// a missing edge is a wrong value, not a hang) on a volatile flag, then
// reads the data. The producer writes the data, then the flag: the
// volatile write releases its cache, each volatile read acquires, so
// the consumer must observe the data (§3.2.1).
func volatileFlagProg() *classfile.Program {
	p := newProg()
	threadCls := p.Lookup("java/lang/Thread")

	box := p.NewClass("Box", nil)
	flag := box.NewVolatileStaticField("flag", classfile.Int)
	data := box.NewStaticField("data", classfile.Int)

	prod := p.NewClass("Producer", threadCls)
	run := prod.NewMethod("run", 0, classfile.Void).Annotate(classfile.AnnRunOnSPE)
	{
		a := run.Asm()
		a.ConstI(12345)
		a.PutStatic(data)
		a.ConstI(1)
		a.PutStatic(flag) // volatile: flush
		a.RetVoid()
		a.MustBuild()
	}

	main := p.NewClass("Main", nil)
	m := main.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm() // locals: 0=i
	a.GetStatic(data)
	a.Pop()
	a.New(prod)
	a.InvokeVirtual(threadCls.MethodByName("start"))
	spin, ready := a.NewLabel(), a.NewLabel()
	a.ConstI(0)
	a.StoreI(0)
	a.Bind(spin)
	a.GetStatic(flag)
	a.IfNE(ready)
	a.Inc(0, 1)
	a.LoadI(0)
	a.ConstI(100_000)
	a.IfICmpLT(spin)
	a.Bind(ready)
	a.GetStatic(data)
	a.Ret()
	a.MustBuild()
	return p
}

// startJoinN is the length of startJoinProg's work array.
const startJoinN = 64

// startJoinProg is the guest of the start-join row, run with
// every thread forced onto local-store cores so all traffic runs
// through write-back data caches:
//
//   - start() is a release: the spawner's plain writes (the work array,
//     the fields of the spawned Thread object) must be flushed to main
//     memory before the child runs, and the child must acquire-purge so
//     stale lines on its core cannot shadow them;
//   - join() on an already-terminated thread is still an acquire: the
//     joiner primed its cache with the old value of the result field,
//     and must purge to observe the dead thread's flushed write.
//
// Without the start release the reader sums a stale (zero) array;
// without the early-return join purge main returns the primed -1. The
// schedule parks main in a long local-arithmetic spin (no memory
// traffic, so nothing else flushes or purges its cache) until the
// reader has terminated, forcing join's early-return path.
func startJoinProg() *classfile.Program {
	const n = startJoinN
	p := newProg()
	threadCls := p.Lookup("java/lang/Thread")

	box := p.NewClass("Box", nil)
	dataF := box.NewField("data", classfile.Ref)
	sumF := box.NewField("sum", classfile.Int)

	reader := p.NewClass("Reader", threadCls)
	bF := reader.NewField("b", classfile.Ref)
	{
		// locals: 0=this 1=arr 2=i 3=s
		a := reader.NewMethod("run", 0, classfile.Void).Asm()
		loop, done := a.NewLabel(), a.NewLabel()
		a.LoadRef(0)
		a.GetField(bF)
		a.GetField(dataF)
		a.StoreRef(1)
		a.ConstI(0)
		a.StoreI(2)
		a.ConstI(0)
		a.StoreI(3)
		a.Bind(loop)
		a.LoadI(2)
		a.LoadRef(1)
		a.ArrayLen()
		a.IfICmpGE(done)
		a.LoadI(3)
		a.LoadRef(1)
		a.LoadI(2)
		a.ALoad(classfile.ElemInt)
		a.AddI()
		a.StoreI(3)
		a.Inc(2, 1)
		a.Goto(loop)
		a.Bind(done)
		a.LoadRef(0)
		a.GetField(bF)
		a.LoadI(3)
		a.PutField(sumF)
		a.RetVoid()
		a.MustBuild()
	}

	coh := p.NewClass("Coh", nil)
	{
		// locals: 0=box 1=arr 2=i 3=w 4=acc
		a := coh.NewMethod("main", classfile.FlagStatic, classfile.Int).Asm()
		a.New(box)
		a.StoreRef(0)
		a.ConstI(n)
		a.NewArray(classfile.ElemInt)
		a.StoreRef(1)
		fill, filled := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(2)
		a.Bind(fill)
		a.LoadI(2)
		a.ConstI(n)
		a.IfICmpGE(filled)
		a.LoadRef(1)
		a.LoadI(2)
		a.LoadI(2)
		a.ConstI(1)
		a.AddI()
		a.AStore(classfile.ElemInt)
		a.Inc(2, 1)
		a.Goto(fill)
		a.Bind(filled)
		a.LoadRef(0)
		a.LoadRef(1)
		a.PutField(dataF)
		a.LoadRef(0)
		a.ConstI(-1)
		a.PutField(sumF) // prime the sum line in main's cache
		a.New(reader)
		a.Dup()
		a.LoadRef(0)
		a.PutField(bF)
		a.Dup()
		a.StoreRef(3)
		a.InvokeVirtual(threadCls.MethodByName("start"))
		spin, spun := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(2)
		a.ConstI(0)
		a.StoreI(4)
		a.Bind(spin)
		a.LoadI(2)
		a.ConstI(50_000)
		a.IfICmpGE(spun)
		a.LoadI(4)
		a.ConstI(3)
		a.MulI()
		a.LoadI(2)
		a.AddI()
		a.StoreI(4)
		a.Inc(2, 1)
		a.Goto(spin)
		a.Bind(spun)
		a.LoadRef(3)
		a.InvokeVirtual(threadCls.MethodByName("join"))
		a.LoadRef(0)
		a.GetField(sumF)
		a.Ret()
		a.MustBuild()
	}

	return p
}
