package vm

import (
	"fmt"

	"herajvm/internal/cell"
	"herajvm/internal/isa"
)

// thrownError carries an application-thrown exception object (athrow)
// out of the instruction step into the dispatcher.
type thrownError struct {
	ref Ref
}

// Error satisfies error; the dispatcher intercepts thrownError before
// it could ever be reported directly.
func (e thrownError) Error() string { return fmt.Sprintf("thrown object %#x", e.ref) }

// raise converts an executor error into exception dispatch: VM traps
// (NullPointerException and friends) are materialised as instances of
// the matching java/lang class when the program declares handlers might
// want them; thrownError carries the application's own object. If no
// frame handles the exception the thread dies with a TrapError, as an
// uncaught exception kills a Java thread.
func (vm *VM) raise(core *cell.Core, t *Thread, err error) {
	var exRef Ref
	var fallback *TrapError

	switch e := err.(type) {
	case thrownError:
		exRef = e.ref
		name := "Throwable"
		if cls := vm.classOf(exRef); cls != nil {
			name = cls.Name
		}
		fallback = &TrapError{Kind: name, Detail: vm.throwableMessage(exRef)}
		if len(t.Frames) > 0 {
			f := t.top()
			if f.CM != nil {
				fallback.Method = f.CM.M.Sig()
				fallback.PC = f.PC
			}
		}
	case *TrapError:
		fallback = e
		exRef = vm.materialiseTrap(e)
	default:
		vm.trap(core, t, err)
		return
	}

	if vm.dispatchThrow(core, t, exRef, 0) {
		return
	}
	vm.trap(core, t, fallback)
}

// materialiseTrap allocates an instance of the java/lang class matching
// a VM trap kind, with its message field set. It returns 0 when the
// class does not exist or allocation fails (the trap then falls back to
// killing the thread, which needs no object).
func (vm *VM) materialiseTrap(e *TrapError) Ref {
	cls := vm.Prog.Lookup("java/lang/" + e.Kind)
	if cls == nil || vm.throwableCls == nil || !cls.IsSubclassOf(vm.throwableCls) {
		return 0
	}
	obj, err := vm.allocObject(cls)
	if err != nil {
		return 0
	}
	// The exception is on no stack yet, and interning its message
	// allocates twice.
	vm.pinned = append(vm.pinned, obj)
	msg, err := vm.intern(e.Detail)
	vm.pinned = vm.pinned[:len(vm.pinned)-1]
	if err == nil {
		vm.Heap.SetFieldSlot(obj, vm.throwableCls.FieldByName("message").Slot, uint64(msg))
	}
	return obj
}

// throwableMessage reads a throwable's message for diagnostics.
func (vm *VM) throwableMessage(ex Ref) string {
	if ex == 0 || vm.throwableCls == nil {
		return "thrown explicitly"
	}
	cls := vm.classOf(ex)
	if cls == nil || !cls.IsSubclassOf(vm.throwableCls) {
		return "thrown explicitly"
	}
	msg := Ref(vm.Heap.FieldSlot(ex, vm.throwableCls.FieldByName("message").Slot))
	if msg == 0 {
		return "no message"
	}
	return vm.GoString(msg)
}

// dispatchThrow unwinds t's frames looking for a handler covering the
// current position whose type matches the exception. pcAdj is 0 when
// the top frame itself faulted and 1 when unwinding resumes in a caller
// (whose PC already points past the faulting call). It returns false
// when the exception is uncaught; it returns true both when a handler
// took over and when unwinding crossed a migration marker (the thread
// migrates back and continues unwinding on the original core type).
func (vm *VM) dispatchThrow(core *cell.Core, t *Thread, exRef Ref, pcAdj int) bool {
	if exRef == 0 {
		return false
	}
	exClass := vm.classOf(exRef)
	if exClass == nil {
		return false
	}
	dispatchCost := uint64(vm.compilers[core.Kind].Costs().OpCost[isa.OpThrow])

	for len(t.Frames) > 0 {
		f := t.top()
		if f.Marker {
			// The throwing method was entered through a migration: return
			// to the origin core type carrying the in-flight exception
			// (§3.1's marker protocol, here on the unwind path).
			t.popFrame()
			t.pendingThrow = exRef
			t.hasPendingThrow = true
			vm.migrate(core, t, f.ReturnKind, 1)
			t.recycle(f)
			return true
		}
		pc := f.PC - pcAdj
		for _, h := range f.CM.Handlers {
			if pc < h.From || pc >= h.To {
				continue
			}
			if h.ClassID >= 0 && !exClass.IsSubclassOf(vm.classByID[h.ClassID]) {
				continue
			}
			// Handler found: clear the operand stack, push the thrown
			// reference, continue at the handler.
			core.Charge(isa.ClassBranch, dispatchCost)
			f.SP = 0
			f.push(uint64(exRef))
			f.PC = h.Target
			if t.State != StateRunning {
				t.State = StateRunning
			}
			return true
		}
		// No handler here: release a synchronized method's monitor and
		// keep unwinding.
		core.Charge(isa.ClassBranch, 20)
		if f.SyncObj != 0 {
			_ = vm.monitorExit(core, t, f.SyncObj)
		}
		t.recycle(t.popFrame())
		pcAdj = 1
	}
	return false
}
