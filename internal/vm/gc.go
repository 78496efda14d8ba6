package vm

import (
	"herajvm/internal/isa"
)

// gcPauseBase + gcPerObject*live is the collector's work on the service
// core.
const (
	gcPauseBase = 20000
	gcPerObject = 80
)

// gc runs a stop-the-world mark-and-sweep collection. As in the paper's
// evaluation configuration, the collector "only runs on the PPE core"
// (§4) — the service core: every core first crosses edgeWorldStop (the
// collector sees all writes, no core keeps a stale pointer to a freed
// object), all cores then stall to the barrier, and the service core
// performs the mark and sweep.
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
	mark := visitor(push)

	// Roots: interned strings, started Thread objects, contended or owned
	// monitors and the pinned set are references by type; which static,
	// thread and frame slots hold one is refs.go's to say.
	for _, r := range vm.interned {
		push(r)
	}
	for obj := range vm.byJavaObj {
		push(obj)
	}
	for obj, m := range vm.monitors {
		if m.owner != nil || len(m.blocked)+len(m.waiters) > 0 {
			push(obj)
		}
	}
	for _, r := range vm.pinned {
		push(r)
	}
	for _, c := range vm.classByID {
		vm.mapStatics(c, mark)
		vm.mapClassLock(c, mark)
	}
	for _, t := range vm.threads {
		if t.State != StateTerminated {
			t.mapRefs(mark)
		}
	}

	for len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		vm.mapObject(obj, mark)
	}

	liveBefore := vm.Heap.LiveObjects()
	vm.Heap.Sweep(marked)

	// Collector cost runs on the service core; every other core stalls
	// until it finishes.
	cycles := gcPauseBase + gcPerObject*uint64(liveBefore)
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
}
