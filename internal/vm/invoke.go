package vm

import (
	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// invoke transfers control from frame f, whose PC is on the call
// instruction, into callee. It handles native dispatch, the
// placement-policy migration decision (with the paper's stack-marker
// protocol), synchronized-method monitor acquisition and, on SPEs, the
// code-cache lookup for the callee.
//
// The PC moves past the call at the moment the arguments leave f's
// operand stack, not before: a compile interning a string constant and
// the first use of a class lock both allocate, the allocation may
// collect, and the arguments are roots only where the verifier's state
// at f.PC types them — on the stack at the call, gone past it, and on no
// thread's stack at all once popped into a frame not yet pushed.
func (vm *VM) invoke(core *cell.Core, t *Thread, f *Frame, callee *classfile.Method) error {
	if callee.IsAbstract() {
		return vm.trapAt(f, "AbstractMethodError", callee.Sig())
	}
	if callee.IsNative() {
		f.PC++
		return vm.invokeNative(core, t, f, callee)
	}

	// Placement decision: "migration occurs when invoking a method which
	// has either been tagged by an annotation or selected by the
	// scheduler" (§3.1). A policy naming a kind the machine lacks lands
	// on the service kind, mirroring place(). Pinned kernel workers skip
	// the decision entirely — the SPMD plan bound them to their core.
	desired := core.Kind
	if !t.pinned {
		desired = vm.policyOf(t.job.policy).OnInvoke(vm, t, callee, core.Kind)
	}
	if !vm.Machine.HasKind(desired) {
		desired = vm.serviceKind()
	}
	migrating := desired != core.Kind

	cm, compileCycles, err := vm.compileFor(desired, callee)
	if err != nil {
		return vm.trapAt(f, "InternalError", err.Error())
	}
	if compileCycles > 0 {
		// The JIT itself runs as runtime code on the invoking core.
		core.Charge(isa.ClassInt, compileCycles)
		noteCompile(t)
	}

	nf := t.newFrame(cm)
	nf.ctr = vm.Monitor.Counters(callee.ID)
	vm.Monitor.Counters(callee.ID).Invokes++

	// A static synchronized callee locks its class's lock object,
	// allocated on first use.
	var lock Ref
	if callee.IsSynchronized() && callee.IsStatic() {
		if lock, err = vm.classLock(callee.Class); err != nil {
			return vm.trapAt(f, "OutOfMemoryError", err.Error())
		}
	}

	// Pop arguments (receiver first in locals).
	f.PC++
	nargs := callee.ArgSlots()
	for i := nargs - 1; i >= 0; i-- {
		nf.Locals[i] = f.pop()
	}

	// Synchronized methods lock the receiver (or the class lock).
	if callee.IsSynchronized() {
		obj := lock
		if !callee.IsStatic() {
			obj = Ref(nf.Locals[0])
		}
		nf.SyncObj = obj
		cost := vm.compilers[core.Kind].Costs().OpCost[isa.OpMonitorEnter]
		core.Charge(isa.ClassMainMem, uint64(cost))
		if !vm.monitorEnter(core, t, obj) {
			// Blocked: the frame is pushed; the monitor will be granted
			// before the thread resumes.
			t.pushFrame(nf)
			if migrating {
				// Keep it simple and correct: blocked synchronized calls
				// complete the migration when granted.
				t.pendingMigrate = desired
				t.hasPendingMigrate = true
			}
			return nil
		}
	}

	if migrating {
		// Push the migration marker beneath the callee frame: returning
		// to the marker migrates back (§3.1).
		marker := &Frame{Marker: true, ReturnKind: core.Kind, ReturnCore: core.ID}
		t.pushFrame(marker)
		t.pushFrame(nf)
		vm.migrate(core, t, desired, nargs)
		return nil
	}

	t.pushFrame(nf)
	if core.Kind.UsesLocalStore() {
		vm.ensureCode(core, cm)
	}
	return nil
}

// classLock returns (allocating on demand) the per-class lock object
// used by static synchronized methods.
func (vm *VM) classLock(c *classfile.Class) (Ref, error) {
	meta := &vm.classes[c.ID]
	if meta.lockObj == 0 {
		obj, err := vm.allocObject(vm.Prog.Object)
		if err != nil {
			return 0, err
		}
		meta.lockObj = obj
	}
	return meta.lockObj, nil
}

// returnFrom pops the current frame and delivers the return value,
// driving the migration-marker protocol and SPE return-path code-cache
// lookups.
func (vm *VM) returnFrom(core *cell.Core, t *Thread, val uint64, hasVal bool) {
	f := t.popFrame()
	if f.SyncObj != 0 {
		cost := vm.compilers[core.Kind].Costs().OpCost[isa.OpMonitorExit]
		core.Charge(isa.ClassMainMem, uint64(cost))
		if err := vm.monitorExit(core, t, f.SyncObj); err != nil {
			vm.trap(core, t, err)
			return
		}
	}

	if len(t.Frames) == 0 {
		t.State = StateTerminated
		t.Result = val
		t.HasResult = hasVal
		return
	}
	t.recycle(f) // dead from here: the value travels in val, not in f

	top := t.top()
	if top.Marker {
		// Return to the migration marker: migrate back to the origin
		// core type, carrying the value (§3.1: "returns to the migration
		// marker placed on the stack").
		t.setPending(val, hasVal, f.CM.M)
		words := 0
		if hasVal {
			words = 1
		}
		vm.migrate(core, t, top.ReturnKind, words)
		return
	}

	if core.Kind.UsesLocalStore() {
		// The caller's code may have been purged while the callee ran:
		// repeat the lookup (§3.2.2).
		vm.reenterCode(core, top.CM)
	}
	if hasVal {
		top.push(val)
	}
}
