package vm

import (
	"fmt"
	"math"

	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// Stdlib installs the built-in Java library subset into a fresh program:
// java/lang/Object's native methods, String, Runnable, Thread, System
// and Math. Call it immediately after classfile.NewProgram, before
// declaring application classes that use these types.
//
// This mirrors Hera-JVM's structure: "as a Java in Java virtual machine,
// almost all of the JikesRVM runtime system is written in Java" (§3.1) —
// here the library classes are bytecode where practical (String.length,
// Thread.run) and native where the real library is native too.
func Stdlib(p *classfile.Program) {
	obj := p.Object

	hash := obj.NewMethod("hashCode", classfile.FlagNative, classfile.Int)
	_ = hash
	eq := obj.NewMethod("equals", 0, classfile.Int, classfile.Ref)
	{
		a := eq.Asm()
		same := a.NewLabel()
		a.LoadRef(0)
		a.LoadRef(1)
		a.IfACmpEQ(same)
		a.ConstI(0)
		a.Ret()
		a.Bind(same)
		a.ConstI(1)
		a.Ret()
		a.MustBuild()
	}
	obj.NewMethod("wait", classfile.FlagNative, classfile.Void)
	obj.NewMethod("notify", classfile.FlagNative, classfile.Void)
	obj.NewMethod("notifyAll", classfile.FlagNative, classfile.Void)

	str := p.NewClass("java/lang/String", nil)
	str.NewField("value", classfile.Ref) // char[]
	str.NewField("count", classfile.Int)
	length := str.NewMethod("length", 0, classfile.Int)
	{
		a := length.Asm()
		a.LoadRef(0)
		a.GetField(str.FieldByName("count"))
		a.Ret()
		a.MustBuild()
	}
	charAt := str.NewMethod("charAt", 0, classfile.Int, classfile.Int)
	{
		a := charAt.Asm()
		a.LoadRef(0)
		a.GetField(str.FieldByName("value"))
		a.LoadI(1)
		a.ALoad(classfile.ElemChar)
		a.Ret()
		a.MustBuild()
	}

	throwable := p.NewClass("java/lang/Throwable", nil)
	throwable.NewField("message", classfile.Ref)
	getMessage := throwable.NewMethod("getMessage", 0, classfile.Ref)
	{
		a := getMessage.Asm()
		a.LoadRef(0)
		a.GetField(throwable.FieldByName("message"))
		a.Ret()
		a.MustBuild()
	}
	exception := p.NewClass("java/lang/Exception", throwable)
	runtimeEx := p.NewClass("java/lang/RuntimeException", exception)
	errCls := p.NewClass("java/lang/Error", throwable)
	for _, name := range []string{
		"ArithmeticException", "NullPointerException",
		"ArrayIndexOutOfBoundsException", "ClassCastException",
		"NegativeArraySizeException", "IllegalMonitorStateException",
		"IllegalThreadStateException", "ArrayStoreException",
	} {
		p.NewClass("java/lang/"+name, runtimeEx)
	}
	for _, name := range []string{
		"OutOfMemoryError", "UnsatisfiedLinkError", "InternalError",
		"AbstractMethodError", "IncompatibleClassChangeError",
	} {
		p.NewClass("java/lang/"+name, errCls)
	}

	runnable := p.NewInterface("java/lang/Runnable")
	runnableRun := runnable.NewMethod("run", classfile.FlagAbstract, classfile.Void)

	thread := p.NewClass("java/lang/Thread", nil)
	thread.NewField("target", classfile.Ref) // Runnable
	run := thread.NewMethod("run", 0, classfile.Void)
	{
		a := run.Asm()
		noTarget := a.NewLabel()
		a.LoadRef(0)
		a.GetField(thread.FieldByName("target"))
		a.IfNull(noTarget)
		a.LoadRef(0)
		a.GetField(thread.FieldByName("target"))
		a.InvokeInterface(runnableRun)
		a.Bind(noTarget)
		a.RetVoid()
		a.MustBuild()
	}
	thread.NewMethod("start", classfile.FlagNative, classfile.Void)
	thread.NewMethod("join", classfile.FlagNative, classfile.Void)
	thread.NewMethod("yield", classfile.FlagStatic|classfile.FlagNative, classfile.Void)

	system := p.NewClass("java/lang/System", nil)
	system.NewMethod("arraycopy", classfile.FlagStatic|classfile.FlagNative, classfile.Void,
		classfile.Ref, classfile.Int, classfile.Ref, classfile.Int, classfile.Int)
	system.NewMethod("currentTimeMillis", classfile.FlagStatic|classfile.FlagNative, classfile.Long)
	system.NewMethod("nanoTime", classfile.FlagStatic|classfile.FlagNative, classfile.Long)
	system.NewMethod("println", classfile.FlagStatic|classfile.FlagNative, classfile.Void, classfile.Ref)
	system.NewMethod("printInt", classfile.FlagStatic|classfile.FlagNative, classfile.Void, classfile.Int)
	system.NewMethod("printLong", classfile.FlagStatic|classfile.FlagNative, classfile.Void, classfile.Long)
	system.NewMethod("printDouble", classfile.FlagStatic|classfile.FlagNative, classfile.Void, classfile.Double)

	installStringBuilder(p)

	m := p.NewClass("java/lang/Math", nil)
	for _, name := range []string{"sqrt", "sin", "cos", "tan", "exp", "log", "floor", "ceil", "abs"} {
		m.NewMethod(name, classfile.FlagStatic|classfile.FlagNative, classfile.Double, classfile.Double)
	}
	m.NewMethod("pow", classfile.FlagStatic|classfile.FlagNative, classfile.Double,
		classfile.Double, classfile.Double)
	m.NewMethod("maxI", classfile.FlagStatic|classfile.FlagNative, classfile.Int,
		classfile.Int, classfile.Int)
	m.NewMethod("minI", classfile.FlagStatic|classfile.FlagNative, classfile.Int,
		classfile.Int, classfile.Int)

	// hera/Kernel is the data-parallel kernel body contract: subclasses
	// override run(from, to) to process the half-open iteration slice
	// [from, to), reading their input arrays and writing only
	// worker-private state (the determinism rule the kernel layer's
	// differential tests pin). The base run is an empty body so a launch
	// on a body without an override is a no-op, not a trap.
	kern := p.NewClass("hera/Kernel", nil)
	kernRun := kern.NewMethod("run", 0, classfile.Void, classfile.Int, classfile.Int)
	{
		a := kernRun.Asm()
		a.RetVoid()
		a.MustBuild()
	}

	// hera/Parallel is the guest-visible launch entry point. forRange
	// splits [from, to) into contiguous chunks, fans them out as SPMD
	// workers pinned one-per-core on the cheapest capable kind, and
	// returns when every worker has retired (a join barrier). The VM
	// intercepts it at invoke time like the other natives.
	par := p.NewClass("hera/Parallel", nil)
	par.NewMethod("forRange", classfile.FlagStatic|classfile.FlagNative, classfile.Void,
		classfile.Int, classfile.Int, classfile.Ref)
}

// registerBuiltins installs the native implementations backing Stdlib.
func registerBuiltins(vm *VM) {
	reg := vm.RegisterNative

	reg("java/lang/Object.hashCode", &Native{Kind: NativeCompute, Cycles: 12, Class: isa.ClassInt,
		Fn: func(c *NativeCtx) error {
			c.ReturnI(int32(c.Args[0]))
			return nil
		}})
	reg("java/lang/Object.wait", &Native{Kind: NativeCompute, Cycles: 60, Class: isa.ClassMainMem,
		Fn: func(c *NativeCtx) error {
			return c.VM.monitorWait(c.Core, c.Thread, Ref(c.Args[0]))
		}})
	reg("java/lang/Object.notify", &Native{Kind: NativeCompute, Cycles: 40, Class: isa.ClassMainMem,
		Fn: func(c *NativeCtx) error {
			return c.VM.monitorNotify(c.Core, c.Thread, Ref(c.Args[0]), 1)
		}})
	reg("java/lang/Object.notifyAll", &Native{Kind: NativeCompute, Cycles: 50, Class: isa.ClassMainMem,
		Fn: func(c *NativeCtx) error {
			return c.VM.monitorNotify(c.Core, c.Thread, Ref(c.Args[0]), -1)
		}})

	reg("java/lang/Thread.start", &Native{Kind: NativeCompute, Cycles: 2500, Class: isa.ClassInt,
		Fn: func(c *NativeCtx) error {
			return c.VM.startJavaThread(c, Ref(c.Args[0]))
		}})
	reg("java/lang/Thread.join", &Native{Kind: NativeCompute, Cycles: 80, Class: isa.ClassInt,
		Fn: func(c *NativeCtx) error {
			target := c.VM.byJavaObj[Ref(c.Args[0])]
			if target == nil || target.State == StateTerminated {
				// Not started or already dead: no wait, and still edgeJoin.
				c.VM.acquire(c.Core, edgeJoin)
				return nil
			}
			target.joiners = append(target.joiners, c.Thread)
			c.Thread.State = StateBlocked
			return nil
		}})
	reg("java/lang/Thread.yield", &Native{Kind: NativeCompute, Cycles: 40, Class: isa.ClassInt,
		Fn: func(c *NativeCtx) error {
			c.Thread.ReadyAt = c.Core.Now
			c.VM.enqueue(c.Thread) // back of the queue; quantum ends
			return nil
		}})

	reg("java/lang/System.arraycopy", &Native{Kind: NativeCompute, Cycles: 200, Class: isa.ClassMainMem,
		Fn: sysArraycopy})
	reg("java/lang/System.currentTimeMillis", &Native{Kind: NativeCompute, Cycles: 30, Class: isa.ClassInt,
		Fn: func(c *NativeCtx) error {
			c.ReturnL(int64(float64(c.Core.Now) / (c.VM.Cfg.Machine.EffectiveClockHz() / 1e3)))
			return nil
		}})
	reg("java/lang/System.nanoTime", &Native{Kind: NativeCompute, Cycles: 30, Class: isa.ClassInt,
		Fn: func(c *NativeCtx) error {
			c.ReturnL(int64(float64(c.Core.Now) / (c.VM.Cfg.Machine.EffectiveClockHz() / 1e9)))
			return nil
		}})
	reg("java/lang/System.println", &Native{Kind: NativeSyscall, Cycles: 400, Class: isa.ClassBranch,
		Fn: func(c *NativeCtx) error {
			fmt.Fprintln(&c.Thread.job.out, c.VM.GoString(Ref(c.Args[0])))
			return nil
		}})
	reg("java/lang/System.printInt", &Native{Kind: NativeSyscall, Cycles: 400, Class: isa.ClassBranch,
		Fn: func(c *NativeCtx) error {
			fmt.Fprintln(&c.Thread.job.out, int32(uint32(c.Args[0])))
			return nil
		}})
	reg("java/lang/System.printLong", &Native{Kind: NativeSyscall, Cycles: 400, Class: isa.ClassBranch,
		Fn: func(c *NativeCtx) error {
			fmt.Fprintln(&c.Thread.job.out, int64(c.Args[0]))
			return nil
		}})
	reg("java/lang/System.printDouble", &Native{Kind: NativeSyscall, Cycles: 400, Class: isa.ClassBranch,
		Fn: func(c *NativeCtx) error {
			fmt.Fprintln(&c.Thread.job.out, math.Float64frombits(c.Args[0]))
			return nil
		}})

	mathNative := func(name string, ppe, spe uint64, fn func(float64) float64) {
		reg("java/lang/Math."+name, &Native{Kind: NativeCompute, Cycles: ppe, SPECycles: spe,
			Class: isa.ClassFloat,
			Fn: func(c *NativeCtx) error {
				c.ReturnD(fn(math.Float64frombits(c.Args[0])))
				return nil
			}})
	}
	// The SPE's software libm is competitive with the PPE's scalar FPU
	// under baseline code; both are tens of cycles per call.
	mathNative("sqrt", 60, 46, math.Sqrt)
	mathNative("sin", 90, 70, math.Sin)
	mathNative("cos", 90, 70, math.Cos)
	mathNative("tan", 110, 86, math.Tan)
	mathNative("exp", 100, 80, math.Exp)
	mathNative("log", 100, 80, math.Log)
	mathNative("floor", 30, 20, math.Floor)
	mathNative("ceil", 30, 20, math.Ceil)
	mathNative("abs", 20, 12, math.Abs)
	reg("java/lang/Math.pow", &Native{Kind: NativeCompute, Cycles: 160, SPECycles: 130,
		Class: isa.ClassFloat,
		Fn: func(c *NativeCtx) error {
			c.ReturnD(math.Pow(math.Float64frombits(c.Args[0]), math.Float64frombits(c.Args[1])))
			return nil
		}})
	reg("java/lang/Math.maxI", &Native{Kind: NativeCompute, Cycles: 8, Class: isa.ClassInt,
		Fn: func(c *NativeCtx) error {
			a, b := int32(uint32(c.Args[0])), int32(uint32(c.Args[1]))
			c.ReturnI(max(a, b))
			return nil
		}})
	reg("java/lang/Math.minI", &Native{Kind: NativeCompute, Cycles: 8, Class: isa.ClassInt,
		Fn: func(c *NativeCtx) error {
			a, b := int32(uint32(c.Args[0])), int32(uint32(c.Args[1]))
			c.ReturnI(min(a, b))
			return nil
		}})

	// The launch cost models packaging the descriptor and ringing each
	// chosen core's doorbell; per-worker spawn costs (compile, purge,
	// staging DMA) are charged on the workers themselves. forRange is
	// void, so blocking the caller at the barrier is safe under the
	// blocking-native contract (runComputeNative pushes no result).
	reg("hera/Parallel.forRange", &Native{Kind: NativeCompute, Cycles: 1800, Class: isa.ClassInt,
		Fn: func(c *NativeCtx) error {
			return c.VM.launchKernel(c,
				int32(uint32(c.Args[0])), int32(uint32(c.Args[1])), Ref(c.Args[2]))
		}})
}

// startJavaThread implements Thread.start(): spawn a VM thread running
// the receiver's (possibly overridden) run() method, placed by policy.
func (vm *VM) startJavaThread(c *NativeCtx, recv Ref) error {
	if recv == 0 {
		return &TrapError{Kind: "NullPointerException", Detail: "Thread.start on null"}
	}
	if vm.byJavaObj[recv] != nil {
		return &TrapError{Kind: "IllegalThreadStateException", Detail: "thread already started"}
	}
	cls := vm.classOf(recv)
	if cls == nil {
		return &TrapError{Kind: "InternalError", Detail: "Thread.start on array"}
	}
	runM := cls.MethodByName("run")
	if runM == nil || runM.IsStatic() {
		return &TrapError{Kind: "InternalError", Detail: "no run() on " + cls.Name}
	}
	// Virtual dispatch: the most-derived override. The spawned thread
	// joins the spawner's job, so whole thread trees stay attributable.
	runM = cls.VTable[runM.VSlot]
	t, err := vm.startThread(c.Thread.job, fmt.Sprintf("Thread-%d", vm.nextTID), runM,
		c.Core.Now, []uint64{uint64(recv)})
	if err != nil {
		return &TrapError{Kind: "InternalError", Detail: err.Error()}
	}
	t.JavaObj = recv
	vm.byJavaObj[recv] = t
	// edgeStart: the spawner's writes happen-before the child's first action.
	vm.release(c.Core, edgeStart)
	vm.acquireOnResume(t, edgeStart)
	return nil
}

// sysArraycopy implements System.arraycopy with a per-byte bus cost. The
// runtime copies through main memory, so the caller first crosses
// edgeRuntime: source written back, destination dropped (conservative).
func sysArraycopy(c *NativeCtx) error {
	vm := c.VM
	src, dst := Ref(c.Args[0]), Ref(c.Args[2])
	srcPos, dstPos := int32(uint32(c.Args[1])), int32(uint32(c.Args[3]))
	n := int32(uint32(c.Args[4]))
	if src == 0 || dst == 0 {
		return &TrapError{Kind: "NullPointerException", Detail: "arraycopy"}
	}
	sid, did := vm.Heap.ClassIDOf(src), vm.Heap.ClassIDOf(dst)
	if !isArrayClassID(sid) || !isArrayClassID(did) || arrayKindOf(sid) != arrayKindOf(did) {
		return &TrapError{Kind: "ArrayStoreException", Detail: "arraycopy type mismatch"}
	}
	k := arrayKindOf(sid)
	slen, dlen := int32(vm.Heap.LengthOf(src)), int32(vm.Heap.LengthOf(dst))
	// The sums are taken in int64: srcPos+n wraps negative in int32 and
	// would pass, turning the copy into a wild access below the array.
	if srcPos < 0 || dstPos < 0 || n < 0 ||
		int64(srcPos)+int64(n) > int64(slen) || int64(dstPos)+int64(n) > int64(dlen) {
		return &TrapError{Kind: "ArrayIndexOutOfBoundsException", Detail: "arraycopy bounds"}
	}
	vm.acquire(c.Core, edgeRuntime)
	esz := k.Size()
	bytes := uint32(n) * esz
	buf := make([]byte, bytes)
	vm.Machine.Mem.ReadBytes(src+isa.HeaderBytes+uint32(srcPos)*esz, buf)
	vm.Machine.Mem.WriteBytes(dst+isa.HeaderBytes+uint32(dstPos)*esz, buf)
	c.Charge(isa.ClassMainMem, uint64(bytes/8+40))
	return nil
}
