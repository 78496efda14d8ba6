package vm

import (
	"strings"
	"testing"

	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

func TestCatchDivByZero(t *testing.T) {
	p := newProg()
	arith := p.Lookup("java/lang/ArithmeticException")
	c := p.NewClass("Catchy", nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	tryStart, tryEnd, handler := a.NewLabel(), a.NewLabel(), a.NewLabel()
	a.Bind(tryStart)
	a.ConstI(1)
	a.ConstI(0)
	a.DivI() // throws
	a.Ret()
	a.Bind(tryEnd)
	a.Bind(handler)
	a.Pop() // discard the exception object
	a.ConstI(-99)
	a.Ret()
	a.Catch(tryStart, tryEnd, handler, arith)
	a.MustBuild()

	_, th := runMain(t, testConfig(), p, "Catchy", "main")
	if got := int32(uint32(th.Result)); got != -99 {
		t.Errorf("handler result: %d", got)
	}
}

func TestCatchTypeFiltering(t *testing.T) {
	// An ArithmeticException must NOT be caught by a handler typed
	// NullPointerException, but must be caught by RuntimeException.
	p := newProg()
	npe := p.Lookup("java/lang/NullPointerException")
	rte := p.Lookup("java/lang/RuntimeException")
	c := p.NewClass("Filter", nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	tryStart, tryEnd := a.NewLabel(), a.NewLabel()
	hNPE, hRTE := a.NewLabel(), a.NewLabel()
	a.Bind(tryStart)
	a.ConstI(1)
	a.ConstI(0)
	a.RemI()
	a.Ret()
	a.Bind(tryEnd)
	a.Bind(hNPE)
	a.Pop()
	a.ConstI(1)
	a.Ret()
	a.Bind(hRTE)
	a.Pop()
	a.ConstI(2)
	a.Ret()
	a.Catch(tryStart, tryEnd, hNPE, npe) // first, wrong type
	a.Catch(tryStart, tryEnd, hRTE, rte) // second, supertype: matches
	a.MustBuild()

	_, th := runMain(t, testConfig(), p, "Filter", "main")
	if got := int32(uint32(th.Result)); got != 2 {
		t.Errorf("want RuntimeException handler (2), got %d", got)
	}
}

func TestAthrowUserExceptionWithMessage(t *testing.T) {
	p := newProg()
	throwable := p.Lookup("java/lang/Throwable")
	exCls := p.NewClass("AppError", p.Lookup("java/lang/Exception"))
	c := p.NewClass("Main", nil)

	thrower := c.NewMethod("boom", classfile.FlagStatic, classfile.Void)
	{
		a := thrower.Asm()
		a.New(exCls)
		a.Dup()
		a.Str("custom failure")
		a.PutField(throwable.FieldByName("message"))
		a.Throw()
		a.MustBuild()
	}
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Ref)
	a := m.Asm()
	tryStart, tryEnd, handler := a.NewLabel(), a.NewLabel(), a.NewLabel()
	a.Bind(tryStart)
	a.InvokeStatic(thrower)
	a.Null()
	a.Ret()
	a.Bind(tryEnd)
	a.Bind(handler)
	a.InvokeVirtual(throwable.MethodByName("getMessage"))
	a.Ret()
	a.Catch(tryStart, tryEnd, handler, exCls)
	a.MustBuild()

	vm, th := runMain(t, testConfig(), p, "Main", "main")
	if got := vm.GoString(Ref(th.Result)); got != "custom failure" {
		t.Errorf("caught message: %q", got)
	}
}

func TestUncaughtPropagatesThroughFrames(t *testing.T) {
	p := newProg()
	c := p.NewClass("Deep", nil)
	inner := c.NewMethod("inner", classfile.FlagStatic, classfile.Void)
	{
		a := inner.Asm()
		a.Null()
		a.ArrayLen() // NPE
		a.Pop()
		a.RetVoid()
		a.MustBuild()
	}
	outer := c.NewMethod("outer", classfile.FlagStatic, classfile.Void)
	{
		a := outer.Asm()
		a.InvokeStatic(inner)
		a.RetVoid()
		a.MustBuild()
	}
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Void)
	a := m.Asm()
	a.InvokeStatic(outer)
	a.RetVoid()
	a.MustBuild()

	vm, err := New(testConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runEntry(vm, "Deep", "main"); err == nil ||
		!strings.Contains(err.Error(), "NullPointerException") {
		t.Errorf("want uncaught NPE, got %v", err)
	}
}

func TestCatchInCallerFrame(t *testing.T) {
	// The callee throws; the caller's handler around the call site
	// catches it after the callee's frame is discarded.
	p := newProg()
	rte := p.Lookup("java/lang/RuntimeException")
	c := p.NewClass("Main", nil)
	callee := c.NewMethod("boom", classfile.FlagStatic, classfile.Int)
	{
		a := callee.Asm()
		a.ConstI(5)
		a.ConstI(0)
		a.DivI()
		a.Ret()
		a.MustBuild()
	}
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	tryStart, tryEnd, handler := a.NewLabel(), a.NewLabel(), a.NewLabel()
	a.Bind(tryStart)
	a.InvokeStatic(callee)
	a.Ret()
	a.Bind(tryEnd)
	a.Bind(handler)
	a.Pop()
	a.ConstI(77)
	a.Ret()
	a.Catch(tryStart, tryEnd, handler, rte)
	a.MustBuild()

	_, th := runMain(t, testConfig(), p, "Main", "main")
	if got := int32(uint32(th.Result)); got != 77 {
		t.Errorf("caller-frame catch: %d", got)
	}
}

func TestUnwindReleasesSynchronizedMonitor(t *testing.T) {
	// A synchronized method throws; its monitor must be released during
	// unwinding so another thread can later acquire it.
	p := newProg()
	rte := p.Lookup("java/lang/RuntimeException")
	c := p.NewClass("Main", nil)
	sync := c.NewMethod("boom", classfile.FlagStatic|classfile.FlagSynchronized, classfile.Void)
	{
		a := sync.Asm()
		a.ConstI(1)
		a.ConstI(0)
		a.DivI()
		a.Pop()
		a.RetVoid()
		a.MustBuild()
	}
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	tryStart, tryEnd, handler := a.NewLabel(), a.NewLabel(), a.NewLabel()
	a.Bind(tryStart)
	a.InvokeStatic(sync)
	a.ConstI(0)
	a.Ret()
	a.Bind(tryEnd)
	a.Bind(handler)
	a.Pop()
	// Call it again: if the class lock leaked, this deadlocks (the
	// second acquire blocks forever with nobody to release).
	a.InvokeStatic(sync)
	a.ConstI(1)
	a.Ret()
	a.Catch(tryStart, tryEnd, handler, rte)
	a.MustBuild()

	vm, err := New(testConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	_, err = runEntry(vm, "Main", "main")
	// The second call throws again (uncaught this time): that's the
	// expected trap. A deadlock error would mean the monitor leaked.
	if err == nil || !strings.Contains(err.Error(), "ArithmeticException") {
		t.Errorf("want second ArithmeticException, got %v", err)
	}
}

func TestExceptionAcrossMigrationBoundary(t *testing.T) {
	// The paper's marker protocol on the unwind path: a method annotated
	// RunOnSPE throws on the SPE; the handler lives in the PPE-side
	// caller. The thread must migrate back mid-unwind and the handler
	// must run on the PPE.
	p := newProg()
	rte := p.Lookup("java/lang/RuntimeException")
	c := p.NewClass("Main", nil)
	speBoom := c.NewMethod("speBoom", classfile.FlagStatic, classfile.Int, classfile.Int).
		Annotate(classfile.AnnRunOnSPE)
	{
		a := speBoom.Asm()
		a.ConstI(10)
		a.LoadI(0)
		a.DivI() // throws when arg == 0, on the SPE
		a.Ret()
		a.MustBuild()
	}
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	tryStart, tryEnd, handler := a.NewLabel(), a.NewLabel(), a.NewLabel()
	a.Bind(tryStart)
	a.ConstI(0)
	a.InvokeStatic(speBoom)
	a.Ret()
	a.Bind(tryEnd)
	a.Bind(handler)
	a.Pop()
	a.ConstI(123)
	a.Ret()
	a.Catch(tryStart, tryEnd, handler, rte)
	a.MustBuild()

	vm, th := runMain(t, testConfig(), p, "Main", "main")
	if got := int32(uint32(th.Result)); got != 123 {
		t.Errorf("cross-migration catch: %d", got)
	}
	if th.Migrations < 2 {
		t.Errorf("expected a migration round trip, got %d", th.Migrations)
	}
	var speIn uint64
	for _, s := range vm.Machine.CoresOf(isa.SPE) {
		speIn += s.Stats.MigrationsIn
	}
	if speIn == 0 {
		t.Error("the throwing method never reached an SPE")
	}
}

func TestNestedTryBlocks(t *testing.T) {
	p := newProg()
	arith := p.Lookup("java/lang/ArithmeticException")
	npe := p.Lookup("java/lang/NullPointerException")
	c := p.NewClass("Nested", nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	outS, outE, outH := a.NewLabel(), a.NewLabel(), a.NewLabel()
	inS, inE, inH := a.NewLabel(), a.NewLabel(), a.NewLabel()
	a.Bind(outS)
	a.Bind(inS)
	a.ConstI(1)
	a.ConstI(0)
	a.DivI() // ArithmeticException: not matched by the inner NPE handler
	a.Ret()
	a.Bind(inE)
	a.Bind(outE)
	a.Bind(inH) // inner handler (NPE only)
	a.Pop()
	a.ConstI(1)
	a.Ret()
	a.Bind(outH) // outer handler (arithmetic)
	a.Pop()
	a.ConstI(2)
	a.Ret()
	a.Catch(inS, inE, inH, npe)
	a.Catch(outS, outE, outH, arith)
	a.MustBuild()

	_, th := runMain(t, testConfig(), p, "Nested", "main")
	if got := int32(uint32(th.Result)); got != 2 {
		t.Errorf("nested dispatch: got %d want 2", got)
	}
}

func TestCatchAllHandler(t *testing.T) {
	p := newProg()
	c := p.NewClass("All", nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	tryStart, tryEnd, handler := a.NewLabel(), a.NewLabel(), a.NewLabel()
	a.Bind(tryStart)
	a.ConstI(2)
	a.NewArray(classfile.ElemInt)
	a.ConstI(9)
	a.ALoad(classfile.ElemInt) // OOB
	a.Ret()
	a.Bind(tryEnd)
	a.Bind(handler)
	a.Pop()
	a.ConstI(55)
	a.Ret()
	a.Catch(tryStart, tryEnd, handler, nil) // catch everything
	a.MustBuild()

	_, th := runMain(t, testConfig(), p, "All", "main")
	if got := int32(uint32(th.Result)); got != 55 {
		t.Errorf("catch-all: %d", got)
	}
}

func TestRethrowFromHandler(t *testing.T) {
	// finally-style: catch everything, do cleanup, rethrow; an outer
	// handler in the caller catches the rethrown object (identity
	// preserved).
	p := newProg()
	c := p.NewClass("Re", nil)
	inner := c.NewMethod("inner", classfile.FlagStatic, classfile.Void)
	{
		a := inner.Asm()
		tryStart, tryEnd, handler := a.NewLabel(), a.NewLabel(), a.NewLabel()
		a.Bind(tryStart)
		a.ConstI(3)
		a.ConstI(0)
		a.DivI()
		a.Pop()
		a.RetVoid()
		a.Bind(tryEnd)
		a.Bind(handler)
		a.Throw() // rethrow the same object
		a.Catch(tryStart, tryEnd, handler, nil)
		a.MustBuild()
	}
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	tryStart, tryEnd, handler := a.NewLabel(), a.NewLabel(), a.NewLabel()
	a.Bind(tryStart)
	a.InvokeStatic(inner)
	a.ConstI(0)
	a.Ret()
	a.Bind(tryEnd)
	a.Bind(handler)
	a.InstanceOf(p.Lookup("java/lang/ArithmeticException"))
	a.Ret()
	a.Catch(tryStart, tryEnd, handler, nil)
	a.MustBuild()

	_, th := runMain(t, testConfig(), p, "Re", "main")
	if got := int32(uint32(th.Result)); got != 1 {
		t.Errorf("rethrown object lost its type: %d", got)
	}
}

func TestLoopInsideTryBlockStillFast(t *testing.T) {
	// Handlers must not change executed semantics when nothing throws.
	p := newProg()
	c := p.NewClass("NoThrow", nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	tryStart, tryEnd, handler := a.NewLabel(), a.NewLabel(), a.NewLabel()
	loop, done := a.NewLabel(), a.NewLabel()
	a.Bind(tryStart)
	a.ConstI(0)
	a.StoreI(0)
	a.ConstI(0)
	a.StoreI(1)
	a.Bind(loop)
	a.LoadI(1)
	a.ConstI(1000)
	a.IfICmpGE(done)
	a.LoadI(0)
	a.LoadI(1)
	a.AddI()
	a.StoreI(0)
	a.Inc(1, 1)
	a.Goto(loop)
	a.Bind(done)
	a.LoadI(0)
	a.Ret()
	a.Bind(tryEnd)
	a.Bind(handler)
	a.Pop()
	a.ConstI(-1)
	a.Ret()
	a.Catch(tryStart, tryEnd, handler, nil)
	a.MustBuild()

	_, th := runMain(t, testConfig(), p, "NoThrow", "main")
	if got := int32(uint32(th.Result)); got != 499500 {
		t.Errorf("got %d", got)
	}
}

func TestExceptionTableGrowsCodeSize(t *testing.T) {
	p := newProg()
	c := p.NewClass("Sz", nil)
	plain := c.NewMethod("plain", classfile.FlagStatic, classfile.Void)
	{
		a := plain.Asm()
		a.ConstI(1)
		a.Pop()
		a.RetVoid()
		a.MustBuild()
	}
	guarded := c.NewMethod("guarded", classfile.FlagStatic, classfile.Void)
	{
		a := guarded.Asm()
		s0, e0, h0 := a.NewLabel(), a.NewLabel(), a.NewLabel()
		a.Bind(s0)
		a.ConstI(1)
		a.Pop()
		a.Bind(e0)
		a.RetVoid()
		a.Bind(h0)
		a.Pop()
		a.RetVoid()
		a.Catch(s0, e0, h0, nil)
		a.MustBuild()
	}
	vmach, err := New(testConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := vmach.Compiler(isa.SPE).Compile(plain)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := vmach.Compiler(isa.SPE).Compile(guarded)
	if err != nil {
		t.Fatal(err)
	}
	if cg.Size <= cp.Size {
		t.Errorf("exception table should add bytes: %d vs %d", cg.Size, cp.Size)
	}
	if len(cg.Handlers) != 1 {
		t.Errorf("handlers lowered: %d", len(cg.Handlers))
	}
}
