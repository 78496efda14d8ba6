// Where references live. The VM can move a thread between unlike cores,
// and a job between machines, only because it knows the kind of every
// slot; this file is the one place that knowledge is written down. The
// collector's mark, the freeze's discovery and remap, the image
// validator and the rehydrate's fix-up are all a refMap handed to the
// walks below — no other non-test file of the package tests a field's
// kind or a slot's (seams_test.go holds it; docs/ARCHITECTURE.md, "Where
// references live", has the table).
//
// Nothing is tagged at run time. A heap slot's kind is its field's or
// its array's; a live frame's slots have the kinds the verifier derives
// at the frame's PC, and a value in flight between frames has the kind
// the method it leaves or enters declares — as JikesRVM's compilers hand
// its collector a reference map per method, and as a stack is moved
// between unlike ISAs from compiler-made metadata (Mavrogeorgis et al.,
// PAPERS.md). Only a job image carries flags, derived at capture and
// held to the verifier's kinds at decode.
//
// A walk is map-style: the visitor sees each reference at full slot
// width and returns its replacement, and a slot is stored only when the
// value changed — main memory maps a page on first write, and a mark
// must not dirty the heap it reads.
package vm

import (
	"fmt"

	"herajvm/internal/classfile"
	"herajvm/internal/isa"
	"herajvm/internal/mem"
)

// refMap sees one reference and returns what the slot should hold.
type refMap func(uint64) uint64

// visitor is the refMap of a caller that only looks: every reference of
// live state is shown to see, and nothing is replaced.
func visitor(see func(Ref)) refMap {
	return func(v uint64) uint64 {
		see(Ref(v))
		return v
	}
}

// classRefs is a class's flattened reference map, computed once at boot.
type classRefs struct {
	// fields are the instance slots holding references: the class's own
	// in declaration order, then each superclass's — the order the
	// freeze discovers an object's children in, so image IDs depend on it.
	fields []int32
	// statics index Class.Statics (the order ImageStatics.Slots follows).
	statics []int32
}

func classRefsOf(c *classfile.Class) classRefs {
	var r classRefs
	for k := c; k != nil; k = k.Super {
		for _, fd := range k.Fields {
			if fd.Type.IsRef() {
				r.fields = append(r.fields, int32(fd.Slot))
			}
		}
	}
	for i, fd := range c.Statics {
		if fd.Type.IsRef() {
			r.statics = append(r.statics, int32(i))
		}
	}
	return r
}

// mapSlot is one visit of a host-side slot.
func mapSlot[T uint32 | uint64](p *T, f refMap) {
	if v := T(f(uint64(*p))); v != *p {
		*p = v
	}
}

// mapKinds visits the values the verifier types as references. kinds
// may be shorter than vals: the slots past it are not described, and not
// visited.
func mapKinds(vals []uint64, kinds []classfile.TypeKind, f refMap) {
	for i, k := range kinds {
		if k.IsRef() {
			mapSlot(&vals[i], f)
		}
	}
}

// kinds is the verifier's type state of a live activation: the locals,
// and the fr.SP operand-stack slots in use. The state is the one on
// entry to the instruction at fr.PC, of which a frame always holds a
// prefix: a caller's PC is past its call, whose result the state counts
// and the return has yet to push, and a frame stopped inside an
// instruction by an allocation has popped operands and pushed nothing.
// A local typed Void there — unwritten, or written at different kinds on
// different paths — is not a root even when it holds an address: no
// verified instruction can read it before writing it.
func (fr *Frame) kinds() (stack, locals []classfile.TypeKind) {
	stack, locals, err := classfile.KindsAt(fr.CM.M, fr.PC)
	if err != nil || fr.SP > len(stack) || len(fr.Locals) != len(locals) {
		// Internal invariant, unreachable because frames run only verified bodies at their PCs.
		panic(fmt.Sprintf("vm: frame of %s at pc %d (%d locals, sp %d) is not in the verifier's state (%d locals, stack %v): %v",
			fr.CM.M.Sig(), fr.PC, len(fr.Locals), fr.SP, len(locals), stack, err))
	}
	return stack[:fr.SP], locals
}

// argKinds are the kinds of a call's arguments as the callee's locals
// receive them, receiver first.
func argKinds(m *classfile.Method) []classfile.TypeKind {
	if m.IsStatic() {
		return m.Params
	}
	return append([]classfile.TypeKind{classfile.Ref}, m.Params...)
}

// setPending parks the value m returned (or nothing) for delivery across
// a migration; it is a reference when m declares one.
func (t *Thread) setPending(val uint64, hasVal bool, m *classfile.Method) {
	t.pendingVal, t.pendingHasVal, t.pendingIsRef = val, hasVal, hasVal && m.Ret.IsRef()
}

// imageSlots is a live frame's slots as an image carries them: values
// with a flag per value, set where the verifier types a reference. A
// Void local goes out zero — it is dead, and whatever it holds is a
// source-machine address or a stale int the target has no use for.
func imageSlots(vals []uint64, kinds []classfile.TypeKind) ([]uint64, []bool) {
	out, flags := make([]uint64, len(kinds)), make([]bool, len(kinds))
	for i, k := range kinds {
		if k != classfile.Void {
			out[i], flags[i] = vals[i], k.IsRef()
		}
	}
	return out, flags
}

// mapFlagged visits the values of an image frame whose reference flag is
// set. flags is as long as vals, by validateImage.
func mapFlagged(vals []uint64, flags []bool, f refMap) {
	for i := range vals {
		if flags[i] {
			mapSlot(&vals[i], f)
		}
	}
}

// flagsMatch reports whether reference flags agree with verifier kinds:
// set for a reference, clear for a primitive, either for Void (a local
// whose paths disagree, or that nothing has written yet).
func flagsMatch(kinds []classfile.TypeKind, flags []bool) bool {
	for i, k := range kinds {
		if k != classfile.Void && flags[i] != k.IsRef() {
			return false
		}
	}
	return true
}

// mapMem64 and mapMem32 are one visit of a main-memory slot.
func (vm *VM) mapMem64(a mem.Addr, f refMap) {
	old := vm.Machine.Mem.Read64(a)
	if v := f(old); v != old {
		vm.Machine.Mem.Write64(a, v)
	}
}

func (vm *VM) mapMem32(a mem.Addr, f refMap) {
	old := vm.Machine.Mem.Read32(a)
	if v := uint32(f(uint64(old))); v != old {
		vm.Machine.Mem.Write32(a, v)
	}
}

// mapObject visits a live object's children: a reference array's
// elements, an instance's reference fields.
func (vm *VM) mapObject(obj Ref, f refMap) {
	id := vm.Heap.ClassIDOf(obj)
	if !isArrayClassID(id) {
		for _, s := range vm.classes[id].refs.fields {
			vm.mapMem64(obj+isa.FieldOffset(int(s)), f)
		}
		return
	}
	if arrayKindOf(id) == isa.ElemRef {
		for i, n := uint32(0), vm.Heap.LengthOf(obj); i < n; i++ {
			vm.mapMem32(obj+isa.HeaderBytes+i*4, f)
		}
	}
}

// staticAddr is the main-memory address of one static field.
func (vm *VM) staticAddr(fd *classfile.Field) mem.Addr {
	return vm.staticsBase + uint32(fd.Slot)*isa.SlotBytes
}

// mapStatics visits a class's reference statics.
func (vm *VM) mapStatics(c *classfile.Class, f refMap) {
	for _, i := range vm.classes[c.ID].refs.statics {
		vm.mapMem64(vm.staticAddr(c.Statics[i]), f)
	}
}

// mapClassLock visits the object a class's static synchronized methods
// lock. It is apart from mapStatics because a freeze does not discover
// through it: an idle lock stays behind and the target makes its own.
func (vm *VM) mapClassLock(c *classfile.Class, f refMap) {
	mapSlot(&vm.classes[c.ID].lockObj, f)
}

// mapRefs visits a thread's roots: its Thread object, a return value
// pending across a migration, an exception in flight across one, the
// arguments of a native suspended across one, and each frame's locals
// and operand stack below SP where the verifier types a reference, and
// its synchronized-method monitor. The order is the freeze's discovery
// order.
func (t *Thread) mapRefs(f refMap) {
	mapSlot(&t.JavaObj, f)
	if t.pendingHasVal && t.pendingIsRef {
		mapSlot(&t.pendingVal, f)
	}
	if t.hasPendingThrow {
		mapSlot(&t.pendingThrow, f)
	}
	if p := t.pendingNative; p != nil {
		mapKinds(p.ctx.Args, argKinds(p.callee), f)
	}
	for _, fr := range t.Frames {
		if fr.Marker {
			continue
		}
		stack, locals := fr.kinds()
		mapKinds(fr.Locals, locals, f)
		mapKinds(fr.Stack, stack, f)
		mapSlot(&fr.SyncObj, f)
	}
}

// mapRefs visits every reference of a job image, the same sites in
// their serialized form (a freeze carries no in-flight throw or
// suspended native) plus the monitor table. The image must have passed
// validateImage's shape checks against vm's program: classes resolve,
// slot counts match, flag slices cover their values.
func (img *JobImage) mapRefs(vm *VM, f refMap) {
	for i := range img.Objects {
		o := &img.Objects[i]
		for e := range o.Elems {
			mapSlot(&o.Elems[e], f)
		}
		if o.Class != "" {
			for _, s := range vm.classes[vm.Prog.Lookup(o.Class).ID].refs.fields {
				mapSlot(&o.Slots[s], f)
			}
		}
	}
	for i := range img.Statics {
		st := &img.Statics[i]
		for _, s := range vm.classes[vm.Prog.Lookup(st.Class).ID].refs.statics {
			mapSlot(&st.Slots[s], f)
		}
	}
	for i := range img.ClassLocks {
		mapSlot(&img.ClassLocks[i].Obj, f)
	}
	for i := range img.Threads {
		t := &img.Threads[i]
		mapSlot(&t.JavaObj, f)
		if t.PendingHasVal && t.PendingIsRef {
			mapSlot(&t.PendingVal, f)
		}
		for fi := range t.Frames {
			fr := &t.Frames[fi]
			mapFlagged(fr.Locals, fr.LocalRefs, f)
			mapFlagged(fr.Stack, fr.StackRefs, f)
			mapSlot(&fr.SyncObj, f)
		}
	}
	for i := range img.Monitors {
		mapSlot(&img.Monitors[i].Obj, f)
	}
}
