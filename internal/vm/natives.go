package vm

import (
	"fmt"
	"math"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

func f64bits(v float64) uint64 { return math.Float64bits(v) }

// syscallSendCycles (each way) and syscallServeCycles model the fast
// syscall mailbox round trip from a core without runtime services to the
// service core (§3.2.3); a syscall made on a service-hosting core costs
// syscallServeCycles alone.
const (
	syscallSendCycles  = 250
	syscallServeCycles = 600
)

// NativeKind classifies how a native method executes (§3.2.3).
type NativeKind uint8

const (
	// NativeCompute runs in place on the current core (pure computation,
	// e.g. java/lang/Math).
	NativeCompute NativeKind = iota
	// NativeSyscall is a runtime fast syscall: on a core whose kind
	// cannot host runtime services it is shipped to the dedicated
	// service-core thread by mailbox message and the calling thread
	// stalls for the round trip.
	NativeSyscall
	// NativeJNI migrates the thread to the service core's kind for the
	// duration of the native method, then migrates back.
	NativeJNI
)

// NativeFunc is a native method body. It runs Go-side; costs are charged
// by the dispatcher plus whatever the body adds via ctx.Charge.
type NativeFunc func(ctx *NativeCtx) error

// Native describes one registered native method.
type Native struct {
	Kind NativeKind
	// Cycles is the compute cost on a hardware-cached core (the PPE);
	// SPECycles, when nonzero, overrides it on local-store accelerator
	// cores (SPE, VPU).
	Cycles    uint64
	SPECycles uint64
	// Class is the operation class the compute cost is billed to.
	Class isa.OpClass
	Fn    NativeFunc
}

// NativeCtx is the environment passed to a native body.
type NativeCtx struct {
	VM     *VM
	Core   *cell.Core
	Thread *Thread
	Method *classfile.Method
	// Args holds the arguments, receiver first for instance methods.
	Args []uint64

	// retVal is delivered when Method declares a return value, at the
	// kind it declares (zero if the body set none).
	retVal uint64
}

// ReturnI sets an int return value; the other Return helpers follow.
func (c *NativeCtx) ReturnI(v int32) { c.retVal = uint64(uint32(v)) }

// ReturnL sets a long return value.
func (c *NativeCtx) ReturnL(v int64) { c.retVal = uint64(v) }

// ReturnD sets a double return value.
func (c *NativeCtx) ReturnD(v float64) { c.retVal = f64bits(v) }

// ReturnRef sets a reference return value.
func (c *NativeCtx) ReturnRef(r Ref) { c.retVal = uint64(r) }

// Charge bills extra cycles to the calling core (for natives whose cost
// depends on their arguments, e.g. System.arraycopy).
func (c *NativeCtx) Charge(class isa.OpClass, n uint64) { c.Core.Charge(class, n) }

// RegisterNative installs (or overrides) a native implementation by tag
// ("Class.method"). Applications can register their own natives before
// running, e.g. to model accelerator calls.
func (vm *VM) RegisterNative(tag string, n *Native) { vm.natives[tag] = n }

// serviceCore is the core hosting the runtime services (the dedicated
// syscall service thread and the collector). By convention it is the
// topology's first core of a service-hosting kind; validation
// guarantees one exists.
func (vm *VM) serviceCore() *cell.Core { return vm.service }

// pendingNativeCall carries a JNI native across the migration to the
// service core.
type pendingNativeCall struct {
	native *Native
	ctx    *NativeCtx
	callee *classfile.Method
}

// invokeNative dispatches a native method call from frame f.
func (vm *VM) invokeNative(core *cell.Core, t *Thread, f *Frame, callee *classfile.Method) error {
	n := vm.natives[callee.NativeTag]
	if n == nil {
		return vm.trapAt(f, "UnsatisfiedLinkError", callee.NativeTag)
	}
	nargs := callee.ArgSlots()
	args := make([]uint64, nargs)
	for i := nargs - 1; i >= 0; i-- {
		args[i] = f.pop()
	}
	ctx := &NativeCtx{VM: vm, Core: core, Thread: t, Method: callee, Args: args}

	switch n.Kind {
	case NativeCompute:
		return vm.runComputeNative(core, t, f, callee, n, ctx)

	case NativeSyscall:
		core.Stats.Syscalls++
		if !core.Kind.HostsServices() {
			// Mailbox message to the dedicated service-core thread
			// (§3.2.3): the calling thread stalls for the round trip; the
			// service serialises concurrent requests.
			vm.release(core, edgeSyscall) // it reads the arguments from main memory
			arrive := core.Now + syscallSendCycles
			start := arrive
			if vm.svcBusy > start {
				start = vm.svcBusy
			}
			done := start + syscallServeCycles
			vm.svcBusy = done
			vm.serviceCore().Stats.Syscalls++
			if err := n.Fn(ctx); err != nil {
				return vm.nativeTrap(f, callee, err)
			}
			vm.pushNativeResult(f, callee, ctx)
			t.ReadyAt = done + syscallSendCycles
			vm.enqueue(t) // thread stalls until the reply arrives
			return nil
		}
		core.Charge(isa.ClassBranch, syscallServeCycles)
		if err := n.Fn(ctx); err != nil {
			return vm.nativeTrap(f, callee, err)
		}
		vm.pushNativeResult(f, callee, ctx)
		return nil

	case NativeJNI:
		if !core.Kind.HostsServices() {
			// "In the case of a JNI method, the thread is migrated to
			// the PPE core for the duration of the native method"
			// (§3.2.3) — the service kind, in registry terms.
			t.pushFrame(&Frame{Marker: true, ReturnKind: core.Kind, ReturnCore: core.ID})
			t.pendingNative = &pendingNativeCall{native: n, ctx: ctx, callee: callee}
			vm.migrate(core, t, vm.serviceKind(), nargs)
			return nil
		}
		return vm.runComputeNative(core, t, f, callee, n, ctx)
	}
	return vm.trapAt(f, "InternalError", fmt.Sprintf("bad native kind %d", n.Kind))
}

// runComputeNative charges and executes a native in place.
func (vm *VM) runComputeNative(core *cell.Core, t *Thread, f *Frame,
	callee *classfile.Method, n *Native, ctx *NativeCtx) error {

	cycles := n.Cycles
	if core.Kind.UsesLocalStore() && n.SPECycles != 0 {
		cycles = n.SPECycles
	}
	core.Charge(n.Class, cycles)
	if err := n.Fn(ctx); err != nil {
		return vm.nativeTrap(f, callee, err)
	}
	if t.State != StateRunning {
		// The native blocked the thread (join/wait): no result to push
		// (blocking natives are void).
		return nil
	}
	vm.pushNativeResult(f, callee, ctx)
	return nil
}

// resumePendingNative completes a JNI native after the thread arrived on
// the PPE, then migrates it back with the result.
func (vm *VM) resumePendingNative(core *cell.Core, t *Thread) {
	p := t.pendingNative
	t.pendingNative = nil
	p.ctx.Core = core
	core.Charge(p.native.Class, p.native.Cycles)
	if err := p.native.Fn(p.ctx); err != nil {
		vm.trap(core, t, err)
		return
	}
	if t.State != StateRunning {
		return
	}
	// The migration marker is on top; carry the value back. The
	// executor's marker handling pushes it into the caller.
	t.setPending(p.ctx.retVal, p.callee.Ret != classfile.Void, p.callee)
	marker := t.top()
	words := 0
	if t.pendingHasVal {
		words = 1
	}
	vm.migrate(core, t, marker.ReturnKind, words)
}

// pushNativeResult pushes the declared return value (zero if the body
// set none).
func (vm *VM) pushNativeResult(f *Frame, callee *classfile.Method, ctx *NativeCtx) {
	if callee.Ret == classfile.Void {
		return
	}
	f.push(ctx.retVal)
}

func (vm *VM) nativeTrap(f *Frame, callee *classfile.Method, err error) error {
	if te, ok := err.(*TrapError); ok {
		if te.Method == "" {
			te.Method = callee.Sig()
		}
		return te
	}
	return vm.trapAt(f, "InternalError", err.Error())
}

// GoString reads a java/lang/String into a Go string (runtime-internal,
// no cycle cost: used by natives that already charged their cost).
func (vm *VM) GoString(s Ref) string {
	if s == 0 {
		return "<null>"
	}
	cls := vm.classOf(s)
	if cls != vm.stringCls || cls == nil {
		return fmt.Sprintf("<obj %#x>", s)
	}
	arr := Ref(vm.Heap.FieldSlot(s, cls.FieldByName("value").Slot))
	count := uint32(vm.Heap.FieldSlot(s, cls.FieldByName("count").Slot))
	buf := make([]byte, count)
	for i := uint32(0); i < count; i++ {
		buf[i] = byte(vm.Machine.Mem.Read16(arr + isa.HeaderBytes + i*2))
	}
	return string(buf)
}
