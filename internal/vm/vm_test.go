package vm

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// testConfig returns a small, fast machine for unit tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Machine.MainMemory = 16 << 20
	cfg.HeapBytes = 4 << 20
	cfg.CodeBytes = 1 << 20
	cfg.BootBytes = 256 << 10
	return cfg
}

// newProg returns a program with the stdlib installed.
func newProg() *classfile.Program {
	p := classfile.NewProgram()
	Stdlib(p)
	return p
}

// runEntry submits a static entry method as the machine's one job and
// waits for it, returning the root thread and the job's first trap.
func runEntry(v *VM, class, method string) (*Thread, error) {
	j, _, err := v.Submit(JobSpec{Name: "main", Class: class, Method: method})
	if err != nil {
		return nil, err
	}
	_, err = j.Wait()
	return j.Root(), err
}

func runMain(t *testing.T, cfg Config, p *classfile.Program, cls, method string) (*VM, *Thread) {
	t.Helper()
	vm, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	th, err := runEntry(vm, cls, method)
	if err != nil {
		t.Fatalf("run %s.%s: %v", cls, method, err)
	}
	return vm, th
}

func TestArithmeticOnPPE(t *testing.T) {
	p := newProg()
	c := p.NewClass("Calc", nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	// ((7*6)+3) % 11 = 45 % 11 = 1
	a.ConstI(7)
	a.ConstI(6)
	a.MulI()
	a.ConstI(3)
	a.AddI()
	a.ConstI(11)
	a.RemI()
	a.Ret()
	a.MustBuild()

	vm, th := runMain(t, testConfig(), p, "Calc", "main")
	if int32(uint32(th.Result)) != 1 {
		t.Errorf("result: %d", int32(uint32(th.Result)))
	}
	if vm.Machine.CoresOf(isa.PPE)[0].Now == 0 {
		t.Error("PPE clock never advanced")
	}
	if vm.Machine.CoresOf(isa.SPE)[0].Stats.Instrs != 0 {
		t.Error("SPEs should be idle for an unannotated main")
	}
}

func TestLoopSumOnBothCoreKinds(t *testing.T) {
	build := func() *classfile.Program {
		p := newProg()
		c := p.NewClass("Loop", nil)
		m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
		a := m.Asm()
		loop, done := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(0)
		a.ConstI(0)
		a.StoreI(1)
		a.Bind(loop)
		a.LoadI(1)
		a.ConstI(100)
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
		a.MustBuild()
		return p
	}
	for _, kind := range []isa.CoreKind{isa.PPE, isa.SPE} {
		cfg := testConfig()
		cfg.Policy = FixedPolicy{Kind: kind}
		_, th := runMain(t, cfg, build(), "Loop", "main")
		if got := int32(uint32(th.Result)); got != 4950 {
			t.Errorf("%v: sum = %d, want 4950", kind, got)
		}
	}
}

func TestDoubleMathAndConversions(t *testing.T) {
	p := newProg()
	c := p.NewClass("FP", nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	// (int)(sqrt(2.0) * 1000) = 1414
	mathCls := p.Lookup("java/lang/Math")
	a.ConstD(2.0)
	a.InvokeStatic(mathCls.MethodByName("sqrt"))
	a.ConstD(1000)
	a.MulD()
	a.D2I()
	a.Ret()
	a.MustBuild()
	_, th := runMain(t, testConfig(), p, "FP", "main")
	if got := int32(uint32(th.Result)); got != 1414 {
		t.Errorf("got %d", got)
	}
}

func TestLongArithmetic(t *testing.T) {
	p := newProg()
	c := p.NewClass("L", nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Long)
	a := m.Asm()
	a.ConstL(1 << 40)
	a.ConstL(3)
	a.MulL()
	a.ConstL(7)
	a.AddL()
	a.Ret()
	a.MustBuild()
	_, th := runMain(t, testConfig(), p, "L", "main")
	if got := int64(th.Result); got != 3*(1<<40)+7 {
		t.Errorf("got %d", got)
	}
}

func TestObjectsFieldsAndVirtualDispatch(t *testing.T) {
	p := newProg()
	animal := p.NewClass("Animal", nil)
	legs := animal.NewField("legs", classfile.Int)
	speak := animal.NewMethod("speak", 0, classfile.Int)
	{
		a := speak.Asm()
		a.LoadRef(0)
		a.GetField(legs)
		a.Ret()
		a.MustBuild()
	}
	dog := p.NewClass("Dog", animal)
	bark := dog.NewMethod("speak", 0, classfile.Int)
	{
		a := bark.Asm()
		a.LoadRef(0)
		a.GetField(legs)
		a.ConstI(100)
		a.AddI()
		a.Ret()
		a.MustBuild()
	}

	c := p.NewClass("Main", nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	// Animal x = new Dog(); x.legs = 4; return x.speak(); // 104
	a.New(dog)
	a.StoreRef(0)
	a.LoadRef(0)
	a.ConstI(4)
	a.PutField(legs)
	a.LoadRef(0)
	a.InvokeVirtual(speak) // declared on Animal, dispatches to Dog
	a.Ret()
	a.MustBuild()

	_, th := runMain(t, testConfig(), p, "Main", "main")
	if got := int32(uint32(th.Result)); got != 104 {
		t.Errorf("virtual dispatch result: %d", got)
	}
}

func TestInterfaceDispatch(t *testing.T) {
	p := newProg()
	shape := p.NewInterface("Shape")
	area := shape.NewMethod("area", classfile.FlagAbstract, classfile.Int)

	square := p.NewClass("Square", nil)
	square.AddInterface(shape)
	side := square.NewField("side", classfile.Int)
	impl := square.NewMethod("area", 0, classfile.Int)
	{
		a := impl.Asm()
		a.LoadRef(0)
		a.GetField(side)
		a.LoadRef(0)
		a.GetField(side)
		a.MulI()
		a.Ret()
		a.MustBuild()
	}

	c := p.NewClass("Main", nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	a.New(square)
	a.StoreRef(0)
	a.LoadRef(0)
	a.ConstI(9)
	a.PutField(side)
	a.LoadRef(0)
	a.InvokeInterface(area)
	a.Ret()
	a.MustBuild()

	_, th := runMain(t, testConfig(), p, "Main", "main")
	if got := int32(uint32(th.Result)); got != 81 {
		t.Errorf("interface dispatch result: %d", got)
	}
}

func TestArraysAllKinds(t *testing.T) {
	p := newProg()
	c := p.NewClass("Arr", nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	// byte[] b = new byte[4]; b[2] = -5; (sign-extended read)
	a.ConstI(4)
	a.NewArray(classfile.ElemByte)
	a.StoreRef(0)
	a.LoadRef(0)
	a.ConstI(2)
	a.ConstI(-5)
	a.AStore(classfile.ElemByte)
	// double[] d = new double[3]; d[1] = 2.5
	a.ConstI(3)
	a.NewArray(classfile.ElemDouble)
	a.StoreRef(1)
	a.LoadRef(1)
	a.ConstI(1)
	a.ConstD(2.5)
	a.AStore(classfile.ElemDouble)
	// return b[2] + (int)d[1] + b.length  => -5 + 2 + 4 = 1
	a.LoadRef(0)
	a.ConstI(2)
	a.ALoad(classfile.ElemByte)
	a.LoadRef(1)
	a.ConstI(1)
	a.ALoad(classfile.ElemDouble)
	a.D2I()
	a.AddI()
	a.LoadRef(0)
	a.ArrayLen()
	a.AddI()
	a.Ret()
	a.MustBuild()
	_, th := runMain(t, testConfig(), p, "Arr", "main")
	if got := int32(uint32(th.Result)); got != 1 {
		t.Errorf("got %d", got)
	}
}

func TestStaticFields(t *testing.T) {
	p := newProg()
	c := p.NewClass("S", nil)
	counter := c.NewStaticField("counter", classfile.Int)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	a.ConstI(41)
	a.PutStatic(counter)
	a.GetStatic(counter)
	a.ConstI(1)
	a.AddI()
	a.PutStatic(counter)
	a.GetStatic(counter)
	a.Ret()
	a.MustBuild()
	_, th := runMain(t, testConfig(), p, "S", "main")
	if got := int32(uint32(th.Result)); got != 42 {
		t.Errorf("got %d", got)
	}
}

func TestTrapsKillThread(t *testing.T) {
	cases := []struct {
		name string
		emit func(p *classfile.Program, a *classfile.Asm)
		want string
	}{
		{"DivByZero", func(_ *classfile.Program, a *classfile.Asm) {
			a.ConstI(1)
			a.ConstI(0)
			a.DivI()
			a.Ret()
		}, "ArithmeticException"},
		{"NullField", func(_ *classfile.Program, a *classfile.Asm) {
			a.Null()
			a.ArrayLen()
			a.Ret()
		}, "NullPointerException"},
		{"OOB", func(_ *classfile.Program, a *classfile.Asm) {
			a.ConstI(2)
			a.NewArray(classfile.ElemInt)
			a.ConstI(5)
			a.ALoad(classfile.ElemInt)
			a.Ret()
		}, "ArrayIndexOutOfBoundsException"},
		// srcPos+n (and dstPos+n) wrap negative in int32; the bounds check
		// must not let the copy through as a wild access below the array.
		{"ArraycopySrcWrap", func(p *classfile.Program, a *classfile.Asm) {
			emitArraycopy(p, a, 0x7fffffff, 0)
		}, "ArrayIndexOutOfBoundsException"},
		{"ArraycopyDstWrap", func(p *classfile.Program, a *classfile.Asm) {
			emitArraycopy(p, a, 0, 0x7fffffff)
		}, "ArrayIndexOutOfBoundsException"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newProg()
			c := p.NewClass("T", nil)
			m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
			a := m.Asm()
			tc.emit(p, a)
			a.MustBuild()
			vm, err := New(testConfig(), p)
			if err != nil {
				t.Fatal(err)
			}
			_, err = runEntry(vm, "T", "main")
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("want %s, got %v", tc.want, err)
			}
		})
	}
}

// emitArraycopy emits System.arraycopy(new int[4], srcPos, new int[4],
// dstPos, 1) and returns 0.
func emitArraycopy(p *classfile.Program, a *classfile.Asm, srcPos, dstPos int32) {
	a.ConstI(4)
	a.NewArray(classfile.ElemInt)
	a.ConstI(srcPos)
	a.ConstI(4)
	a.NewArray(classfile.ElemInt)
	a.ConstI(dstPos)
	a.ConstI(1)
	a.InvokeStatic(p.Lookup("java/lang/System").MethodByName("arraycopy"))
	a.ConstI(0)
	a.Ret()
}

func TestPrintlnViaSyscall(t *testing.T) {
	p := newProg()
	c := p.NewClass("Hello", nil)
	sys := p.Lookup("java/lang/System")
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Void)
	a := m.Asm()
	a.Str("hello, cell")
	a.InvokeStatic(sys.MethodByName("println"))
	a.ConstI(42)
	a.InvokeStatic(sys.MethodByName("printInt"))
	a.RetVoid()
	a.MustBuild()
	_, th := runMain(t, testConfig(), p, "Hello", "main")
	out := th.job.Output()
	if out != "hello, cell\n42\n" {
		t.Errorf("output: %q", out)
	}
}

func TestSyscallFromSPEStallsAndProxies(t *testing.T) {
	p := newProg()
	c := p.NewClass("SpePrint", nil)
	sys := p.Lookup("java/lang/System")
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Void)
	a := m.Asm()
	a.ConstI(7)
	a.InvokeStatic(sys.MethodByName("printInt"))
	a.RetVoid()
	a.MustBuild()
	cfg := testConfig()
	cfg.Policy = FixedPolicy{Kind: isa.SPE}
	vm, th := runMain(t, cfg, p, "SpePrint", "main")
	if got := th.job.Output(); got != "7\n" {
		t.Errorf("output: %q", got)
	}
	spe0 := vm.Machine.CoresOf(isa.SPE)[0]
	if spe0.Stats.Syscalls != 1 {
		t.Errorf("SPE syscalls: %d", spe0.Stats.Syscalls)
	}
	if vm.Machine.CoresOf(isa.PPE)[0].Stats.Syscalls != 1 {
		t.Errorf("PPE service syscalls: %d", vm.Machine.CoresOf(isa.PPE)[0].Stats.Syscalls)
	}
}

func TestGCReclaimsGarbage(t *testing.T) {
	p := newProg()
	c := p.NewClass("Churn", nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	// for (i = 0; i < 4000; i++) { int[] junk = new int[1024]; junk[0]=i; }
	loop, done := a.NewLabel(), a.NewLabel()
	a.ConstI(0)
	a.StoreI(0)
	a.Bind(loop)
	a.LoadI(0)
	a.ConstI(4000)
	a.IfICmpGE(done)
	a.ConstI(1024)
	a.NewArray(classfile.ElemInt)
	a.StoreRef(1)
	a.LoadRef(1)
	a.ConstI(0)
	a.LoadI(0)
	a.AStore(classfile.ElemInt)
	a.Inc(0, 1)
	a.Goto(loop)
	a.Bind(done)
	a.LoadI(0)
	a.Ret()
	a.MustBuild()
	cfg := testConfig()
	cfg.HeapBytes = 2 << 20 // 4 KB objects * 4000 = 16 MB churn in a 2 MB heap
	vm, th := runMain(t, cfg, p, "Churn", "main")
	if got := int32(uint32(th.Result)); got != 4000 {
		t.Errorf("got %d", got)
	}
	if vm.GCCount == 0 {
		t.Error("expected at least one GC")
	}
	if err := heapInvariants(vm.Heap); err != nil {
		t.Error(err)
	}
	// The check must see a corrupted free list.
	for obj := range vm.Heap.objects {
		vm.Heap.free = append(vm.Heap.free, span{addr: obj, size: 4})
		break
	}
	if heapInvariants(vm.Heap) == nil {
		t.Error("a free span over a live object passed the heap check")
	}
}

// heapInvariants reports a free span that falls outside the heap or
// overlaps a live object.
func heapInvariants(h *Heap) error {
	for _, f := range h.free {
		if f.addr < h.start || f.addr+f.size > h.end {
			return fmt.Errorf("heap: free span [%#x,%#x) outside heap", f.addr, f.addr+f.size)
		}
		for addr, size := range h.objects {
			if f.addr < addr+size && addr < f.addr+f.size {
				return fmt.Errorf("heap: free span [%#x,%#x) overlaps object %#x+%d",
					f.addr, f.addr+f.size, addr, size)
			}
		}
	}
	return nil
}

func TestGCPreservesReachableGraph(t *testing.T) {
	p := newProg()
	node := p.NewClass("Node", nil)
	next := node.NewField("next", classfile.Ref)
	val := node.NewField("val", classfile.Int)

	c := p.NewClass("Main", nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	// Build a 50-node list, churn garbage to force GC, then sum the list.
	loop1, done1 := a.NewLabel(), a.NewLabel()
	a.Null()
	a.StoreRef(0) // head
	a.ConstI(0)
	a.StoreI(1)
	a.Bind(loop1)
	a.LoadI(1)
	a.ConstI(50)
	a.IfICmpGE(done1)
	a.New(node)
	a.StoreRef(2)
	a.LoadRef(2)
	a.LoadI(1)
	a.PutField(val)
	a.LoadRef(2)
	a.LoadRef(0)
	a.PutField(next)
	a.LoadRef(2)
	a.StoreRef(0)
	a.Inc(1, 1)
	a.Goto(loop1)
	a.Bind(done1)

	loop2, done2 := a.NewLabel(), a.NewLabel()
	a.ConstI(0)
	a.StoreI(1)
	a.Bind(loop2)
	a.LoadI(1)
	a.ConstI(3000)
	a.IfICmpGE(done2)
	a.ConstI(1024)
	a.NewArray(classfile.ElemInt)
	a.Pop()
	a.Inc(1, 1)
	a.Goto(loop2)
	a.Bind(done2)

	// sum = 0; while (head != null) { sum += head.val; head = head.next }
	sumLoop, sumDone := a.NewLabel(), a.NewLabel()
	a.ConstI(0)
	a.StoreI(3)
	a.Bind(sumLoop)
	a.LoadRef(0)
	a.IfNull(sumDone)
	a.LoadI(3)
	a.LoadRef(0)
	a.GetField(val)
	a.AddI()
	a.StoreI(3)
	a.LoadRef(0)
	a.GetField(next)
	a.StoreRef(0)
	a.Goto(sumLoop)
	a.Bind(sumDone)
	a.LoadI(3)
	a.Ret()
	a.MustBuild()

	cfg := testConfig()
	cfg.HeapBytes = 2 << 20
	vm, th := runMain(t, cfg, p, "Main", "main")
	if got := int32(uint32(th.Result)); got != 1225 { // sum 0..49
		t.Errorf("list sum after GC: %d, want 1225", got)
	}
	if vm.GCCount == 0 {
		t.Error("expected GC pressure")
	}
}

func TestInstanceOfAndCheckCast(t *testing.T) {
	p := newProg()
	base := p.NewClass("Base", nil)
	sub := p.NewClass("Sub", base)
	other := p.NewClass("Other", nil)

	c := p.NewClass("Main", nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	// new Sub() instanceof Base (1) + new Other() instanceof Base (0)*10
	a.New(sub)
	a.InstanceOf(base)
	a.New(other)
	a.InstanceOf(base)
	a.ConstI(10)
	a.MulI()
	a.AddI()
	a.Ret()
	a.MustBuild()
	_, th := runMain(t, testConfig(), p, "Main", "main")
	if got := int32(uint32(th.Result)); got != 1 {
		t.Errorf("instanceof: %d", got)
	}

	p2 := newProg()
	base2 := p2.NewClass("Base", nil)
	other2 := p2.NewClass("Other", nil)
	c2 := p2.NewClass("Main", nil)
	m2 := c2.NewMethod("main", classfile.FlagStatic, classfile.Void)
	a2 := m2.Asm()
	a2.New(other2)
	a2.CheckCast(base2)
	a2.Pop()
	a2.RetVoid()
	a2.MustBuild()
	vm2, err := New(testConfig(), p2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runEntry(vm2, "Main", "main"); err == nil ||
		!strings.Contains(err.Error(), "ClassCastException") {
		t.Errorf("want ClassCastException, got %v", err)
	}
}

func TestSwitchExecution(t *testing.T) {
	p := newProg()
	c := p.NewClass("Sw", nil)
	pick := c.NewMethod("pick", classfile.FlagStatic, classfile.Int, classfile.Int)
	{
		a := pick.Asm()
		c0, c1, def := a.NewLabel(), a.NewLabel(), a.NewLabel()
		a.LoadI(0)
		a.TableSwitch(5, def, c0, c1)
		a.Bind(c0)
		a.ConstI(100)
		a.Ret()
		a.Bind(c1)
		a.ConstI(200)
		a.Ret()
		a.Bind(def)
		a.ConstI(-1)
		a.Ret()
		a.MustBuild()
	}
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	// pick(5) + pick(6)*2 + pick(99)  => 100 + 400 - 1 = 499
	a.ConstI(5)
	a.InvokeStatic(pick)
	a.ConstI(6)
	a.InvokeStatic(pick)
	a.ConstI(2)
	a.MulI()
	a.AddI()
	a.ConstI(99)
	a.InvokeStatic(pick)
	a.AddI()
	a.Ret()
	a.MustBuild()
	_, th := runMain(t, testConfig(), p, "Sw", "main")
	if got := int32(uint32(th.Result)); got != 499 {
		t.Errorf("got %d", got)
	}
}

func TestAdaptiveCacheControllerRebalances(t *testing.T) {
	// Start compress-like pressure (huge data working set, tiny code)
	// with a deliberately wrong split: the controller must grow the data
	// cache at the code cache's expense, and the program must stay
	// correct across the resizes.
	p := newProg()
	c := p.NewClass("Mem", nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int).
		Annotate(classfile.AnnRunOnSPE)
	a := m.Asm()
	// int[] big = new int[64K]; stride-walk it many times; sum.
	loop, done := a.NewLabel(), a.NewLabel()
	a.ConstI(1 << 16)
	a.NewArray(classfile.ElemInt)
	a.StoreRef(0)
	a.ConstI(0)
	a.StoreI(1) // i
	a.ConstI(0)
	a.StoreI(2) // sum
	a.Bind(loop)
	a.LoadI(1)
	a.ConstI(150000)
	a.IfICmpGE(done)
	// idx = (i * 7919) & 0xffff  (pseudo-random walk)
	a.LoadI(1)
	a.ConstI(7919)
	a.MulI()
	a.ConstI(0xffff)
	a.AndI()
	a.StoreI(3)
	a.LoadRef(0)
	a.LoadI(3)
	a.LoadI(1)
	a.AStore(classfile.ElemInt)
	a.LoadI(2)
	a.LoadRef(0)
	a.LoadI(3)
	a.ALoad(classfile.ElemInt)
	a.AddI()
	a.StoreI(2)
	a.Inc(1, 1)
	a.Goto(loop)
	a.Bind(done)
	a.LoadI(2)
	a.Ret()
	a.MustBuild()

	cfg := testConfig()
	cfg.Machine.Topology = cell.PS3Topology(1)
	cfg.DataCache.Size = 24 << 10 // wrong split on purpose
	cfg.CodeCache.Size = 168 << 10
	cfg.AdaptiveCaches = true
	cfg.AdaptiveIntervalCycles = 300000

	vmach, th := runMain(t, cfg, p, "Mem", "main")
	if th.Trap != nil {
		t.Fatal(th.Trap)
	}
	if vmach.AdaptiveResizes(0) == 0 {
		t.Fatal("controller never resized")
	}
	dataKB, codeKB := vmach.CacheSplit(0)
	if dataKB <= 24<<10 {
		t.Errorf("data cache should have grown: %d/%d", dataKB>>10, codeKB>>10)
	}

	// Same program without the controller must produce the same result.
	cfg2 := cfg
	cfg2.AdaptiveCaches = false
	_, th2 := runMain(t, cfg2, buildSameMem(t), "Mem", "main")
	if th.Result != th2.Result {
		t.Errorf("adaptive run changed the answer: %d vs %d", th.Result, th2.Result)
	}
}

// The controller never shrinks the data cache below one fill unit: with
// 32 KB array blocks, a third 16 KB step toward the code cache would
// leave a 16 KB data cache that cannot hold the next block.
func TestAdaptiveCacheKeepsOneFillUnit(t *testing.T) {
	cfg := testConfig()
	cfg.Machine.Topology = cell.PS3Topology(1)
	cfg.DataCache.ArrayBlock = 32 << 10
	cfg.DataCache.Size = 64 << 10
	cfg.CodeCache.Size = 32 << 10
	cfg.AdaptiveCaches = true
	vm, err := New(cfg, buildComputeWorkers(2, 10))
	if err != nil {
		t.Fatal(err)
	}
	core := vm.Machine.CoresOf(isa.SPE)[0]
	for range 4 { // code misses dominate every window
		core.Now += 2_000_000
		core.Stats.CodeMisses += 1000
		vm.maybeAdapt(core)
	}
	if d, c := vm.CacheSplit(0); d != 32<<10 {
		t.Errorf("split = %d/%d KB, want the data cache held at one 32 KB block", d>>10, c>>10)
	}
}

// buildSameMem rebuilds the TestAdaptiveCacheControllerRebalances
// program (programs are single-use once resolved).
func buildSameMem(t *testing.T) *classfile.Program {
	t.Helper()
	p := newProg()
	c := p.NewClass("Mem", nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int).
		Annotate(classfile.AnnRunOnSPE)
	a := m.Asm()
	loop, done := a.NewLabel(), a.NewLabel()
	a.ConstI(1 << 16)
	a.NewArray(classfile.ElemInt)
	a.StoreRef(0)
	a.ConstI(0)
	a.StoreI(1)
	a.ConstI(0)
	a.StoreI(2)
	a.Bind(loop)
	a.LoadI(1)
	a.ConstI(150000)
	a.IfICmpGE(done)
	a.LoadI(1)
	a.ConstI(7919)
	a.MulI()
	a.ConstI(0xffff)
	a.AndI()
	a.StoreI(3)
	a.LoadRef(0)
	a.LoadI(3)
	a.LoadI(1)
	a.AStore(classfile.ElemInt)
	a.LoadI(2)
	a.LoadRef(0)
	a.LoadI(3)
	a.ALoad(classfile.ElemInt)
	a.AddI()
	a.StoreI(2)
	a.Inc(1, 1)
	a.Goto(loop)
	a.Bind(done)
	a.LoadI(2)
	a.Ret()
	a.MustBuild()
	return p
}

// stringBuilderProg builds "x=-4096!" in a StringBuilder and prints it.
func stringBuilderProg() *classfile.Program {
	p := newProg()
	sb := p.Lookup("java/lang/StringBuilder")
	sys := p.Lookup("java/lang/System")
	c := p.NewClass("SB", nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Void)
	a := m.Asm()
	// StringBuilder b = new; init; append("x=").appendInt(-4096).appendChar('!')
	a.New(sb)
	a.StoreRef(0)
	a.LoadRef(0)
	a.InvokeVirtual(sb.MethodByName("init"))
	a.LoadRef(0)
	a.Str("x=")
	a.InvokeVirtual(sb.MethodByName("appendStr"))
	a.ConstI(-4096)
	a.InvokeVirtual(sb.MethodByName("appendInt"))
	a.ConstI('!')
	a.InvokeVirtual(sb.MethodByName("appendChar"))
	a.InvokeVirtual(sb.MethodByName("toString"))
	a.InvokeStatic(sys.MethodByName("println"))
	a.RetVoid()
	a.MustBuild()
	return p
}

// TestStringBuilderRoundTrip runs it on the PPE and, through the
// syscall mailbox, wholly on an SPE.
func TestStringBuilderRoundTrip(t *testing.T) {
	for _, pol := range []Policy{nil, FixedPolicy{Kind: isa.SPE}} {
		cfg := testConfig()
		cfg.Policy = pol
		_, th := runMain(t, cfg, stringBuilderProg(), "SB", "main")
		if got := th.job.Output(); got != "x=-4096!\n" {
			t.Errorf("policy %v: output %q", pol, got)
		}
	}
}

func TestStringBuilderGrowth(t *testing.T) {
	// Appending 100 digits must cross the initial 16-char capacity
	// several times (exercising ensure + arraycopy).
	p := newProg()
	sb := p.Lookup("java/lang/StringBuilder")
	str := p.Lookup("java/lang/String")
	c := p.NewClass("SBG", nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	loop, done := a.NewLabel(), a.NewLabel()
	a.New(sb)
	a.StoreRef(0)
	a.LoadRef(0)
	a.InvokeVirtual(sb.MethodByName("init"))
	a.ConstI(0)
	a.StoreI(1)
	a.Bind(loop)
	a.LoadI(1)
	a.ConstI(100)
	a.IfICmpGE(done)
	a.LoadRef(0)
	a.ConstI('0')
	a.LoadI(1)
	a.ConstI(10)
	a.RemI()
	a.AddI()
	a.InvokeVirtual(sb.MethodByName("appendChar"))
	a.Pop()
	a.Inc(1, 1)
	a.Goto(loop)
	a.Bind(done)
	a.LoadRef(0)
	a.InvokeVirtual(sb.MethodByName("toString"))
	a.InvokeVirtual(str.MethodByName("length"))
	a.Ret()
	a.MustBuild()
	_, th := runMain(t, testConfig(), p, "SBG", "main")
	if got := int32(uint32(th.Result)); got != 100 {
		t.Errorf("length %d", got)
	}
}

// TestNewRejectsBadConfigs: a Config the machine cannot run is an
// ErrBadConfig from New, not what each row used to be — a constructor's
// panic (the first three), a host panic on the first SPE array access
// (a data cache smaller than one unit), or a run that never ends
// (Quantum 0: no cycle is ever charged). Each row boots and runs under a
// deadline, so a config that slips through fails the test instead of
// hanging it.
// TestNewRejectsBadConfigs: every machine description New cannot run
// comes back as an error wrapping ErrBadConfig — never a plain error, a
// host panic or a run that never ends. The local-store, main-memory,
// cache-fit and empty-topology rows are hole 20 (ROADMAP item 7): they
// escaped ErrBadConfig as plain cell/vm errors, and a zero PPE cache
// geometry — no longer settable — panicked inside New. The last two
// rows escaped as a plain layout error and as a host panic in the boot
// area's allocator.
func TestNewRejectsBadConfigs(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"array block not a power of two", func(c *Config) { c.DataCache.ArrayBlock = 3 }},
		{"array block 0", func(c *Config) { c.DataCache.ArrayBlock = 0 }},
		{"EIB without channels", func(c *Config) { c.Machine.EIB.Channels = 0 }},
		{"EIB without bandwidth", func(c *Config) { c.Machine.EIB.BytesPerCycle = 0 }},
		{"data cache of 0", func(c *Config) { c.DataCache.Size = 0 }},
		{"data cache under one unit", func(c *Config) { c.DataCache.Size = 64 }},
		{"quantum 0", func(c *Config) { c.Quantum = 0 }},
		{"local store of 8 KB", func(c *Config) { c.Machine.LocalStore = 8 << 10 }},
		{"main memory of 512 KB", func(c *Config) { c.Machine.MainMemory = 512 << 10 }},
		{"caches exceed the local store", func(c *Config) { c.CodeCache.Size = c.Machine.LocalStore - c.DataCache.Size + 1 }},
		{"empty topology", func(c *Config) { c.Machine.Topology = nil }},
		{"heap exceeds main memory", func(c *Config) { c.HeapBytes = c.Machine.MainMemory }},
		{"boot area too small for the program", func(c *Config) { c.BootBytes = 256 }},
		{"unknown kind in the topology", func(c *Config) {
			c.Machine.Topology = cell.Topology{{Kind: isa.PPE, Count: 1}, {Kind: isa.NumKinds, Count: 1}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.set(&cfg)
			done := make(chan error, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						done <- fmt.Errorf("host panic: %v", r)
					}
				}()
				vm, err := New(cfg, buildComputeWorkers(2, 10))
				if err == nil {
					_, err = runEntry(vm, "Main", "main")
				}
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, ErrBadConfig) {
					t.Errorf("New = %v, want ErrBadConfig", err)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("the machine booted and is still running: New accepted a config it cannot run")
			}
		})
	}
	if _, err := New(testConfig(), buildComputeWorkers(2, 10)); err != nil {
		t.Errorf("the unmodified config: %v", err)
	}
}
