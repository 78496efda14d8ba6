package vm

import (
	"herajvm/internal/isa"
)

// gc runs a stop-the-world mark-and-sweep collection. As in the paper's
// evaluation configuration, the collector "only runs on the PPE core"
// (§4) — the service core, in registry terms: every core first crosses
// edgeWorldStop (the collector sees all writes, no core keeps a stale
// pointer to a freed object), all cores then stall to the barrier, and
// the service core performs the mark and sweep.
func (vm *VM) gc() {
	svc := vm.serviceCore()
	vm.quiesce(edgeWorldStop)

	// Barrier: all cores reach the same point before the world stops.
	barrier := svc.Now
	for _, c := range vm.cores {
		if c.Now > barrier {
			barrier = c.Now
		}
	}

	marked := make(map[Ref]bool)
	var stack []Ref
	push := func(r Ref) {
		if r != 0 && vm.Heap.Contains(r) && !marked[r] {
			marked[r] = true
			stack = append(stack, r)
		}
	}

	// Roots: interned strings, statics, every thread's frames and Thread
	// objects.
	for _, r := range vm.interned {
		push(r)
	}
	for slot, isRef := range vm.staticRefs {
		if isRef {
			push(Ref(vm.Machine.Mem.Read64(vm.staticsBase + uint32(slot)*isa.SlotBytes)))
		}
	}
	for obj := range vm.byJavaObj {
		push(obj)
	}
	for obj, m := range vm.monitors {
		if m.owner != nil || len(m.blocked)+len(m.waiters) > 0 {
			push(obj)
		}
	}
	for _, meta := range vm.classes {
		push(meta.lockObj)
	}
	for _, r := range vm.pinned {
		push(r)
	}
	for _, t := range vm.threads {
		if t.State == StateTerminated {
			continue
		}
		if t.pendingHasVal && t.pendingIsRef {
			push(Ref(t.pendingVal))
		}
		if t.hasPendingThrow {
			push(t.pendingThrow)
		}
		if t.pendingNative != nil {
			for i, isRef := range t.pendingNative.ctx.ArgRefs {
				if isRef {
					push(Ref(t.pendingNative.ctx.Args[i]))
				}
			}
		}
		for _, f := range t.Frames {
			if f.Marker {
				continue
			}
			for i, isRef := range f.LocalRefs {
				if isRef {
					push(Ref(f.Locals[i]))
				}
			}
			for i := 0; i < f.SP; i++ {
				if f.StackRefs[i] {
					push(Ref(f.Stack[i]))
				}
			}
			push(f.SyncObj)
		}
	}

	// Mark: walk reference fields via class metadata; reference arrays
	// via their elements.
	for len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		id := vm.Heap.ClassIDOf(obj)
		if isArrayClassID(id) {
			if arrayKindOf(id) == isa.ElemRef {
				n := vm.Heap.LengthOf(obj)
				for i := uint32(0); i < n; i++ {
					push(Ref(vm.Machine.Mem.Read32(obj + isa.HeaderBytes + i*4)))
				}
			}
			continue
		}
		for cls := vm.classByID[id]; cls != nil; cls = cls.Super {
			for _, fd := range cls.Fields {
				if fd.Type.IsRef() {
					push(Ref(vm.Heap.FieldSlot(obj, fd.Slot)))
				}
			}
		}
	}

	liveBefore := vm.Heap.LiveObjects()
	freedObjects, _ := vm.Heap.Sweep(marked)

	// Collector cost runs on the service core; every other core stalls
	// until it finishes.
	cycles := vm.Cfg.GCPauseBase + vm.Cfg.GCPerObject*uint64(liveBefore)
	end := barrier + cycles
	svc.AdvanceTo(barrier)
	svc.Charge(isa.ClassMainMem, cycles)
	if svc.Now < end {
		svc.AdvanceTo(end)
	}
	for _, c := range vm.cores {
		if c != svc {
			c.AdvanceTo(end)
		}
	}
	vm.GCCount++
	vm.GCCycles += cycles
	// Bill the pause to the allocating job (the collection ran because
	// its allocation found the heap full), the way output and compiles
	// are already attributed — or to the unattributed bucket when the
	// allocation happened outside any job context.
	if j := vm.curJob; j != nil {
		j.Stats.GCPauses++
		j.Stats.GCCycles += cycles
	} else {
		vm.GCUnattributedCycles += cycles
	}
	_ = freedObjects
}
