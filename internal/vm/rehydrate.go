// RehydrateJob: admitting a frozen JobImage on a target VM. The inverse
// of FreezeJob (snapshot.go): rebuild the heap reachable set with fresh
// allocations, re-link statics and class locks, reconstruct the thread
// tree — recompiling every frame's method for the kind the thread lands
// on and re-entering at EntryOf[BC], exactly the TranslatePC path
// cross-kind migration uses — and rebuild monitors and join edges.
//
// The walk is staged so a failure cannot leave the machine
// half-mutated: validate (pure), allocate (objects pinned against GC,
// zeroed so the collector can walk them), fill payloads (references
// remapped to real heap addresses), build threads locally (compiles may
// intern, allocate, and collect — the pinned set and the already-real
// references keep the transferred graph safe), and only then commit:
// register threads, queues, monitors and the job itself. An error
// before the commit leaves only warm compiled methods and unreachable
// allocations behind — reusable work and collectable garbage, not
// corruption.
package vm

import (
	"fmt"
	"io"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
	"herajvm/internal/jit"
)

// RehydrateJob admits a frozen job image, resuming its thread tree at
// the given arrival (floored at the machine clock, like SubmitJob). The
// image must come from a VM booted over the same program. The job keeps
// its original admission cycle, absolute deadline, verdict, accounting
// and captured output, so end-to-end latency and per-job reports span
// the hand-off; threads land through the normal placement path and pay
// real compile cycles for the target's core kinds.
func (vm *VM) RehydrateJob(img *JobImage, arrival cell.Clock) (*Job, error) {
	if img == nil {
		return nil, fmt.Errorf("vm: rehydrate of nil image")
	}
	if err := vm.validateImage(img); err != nil {
		return nil, err
	}
	if now := vm.Machine.MaxClock(); arrival < now {
		arrival = now
	}
	policy, err := decodePolicy(img.Policy)
	if err != nil {
		return nil, err
	}

	j := &Job{ID: len(vm.jobs), Name: img.Name, AdmittedAt: img.AdmittedAt,
		Deadline: img.Deadline, Verdict: img.Verdict, policy: policy}
	j.Stats = img.Stats
	// Prime the capture buffer with the output already printed on the
	// source (not re-emitted to this VM's stream); new output tees both.
	j.out.Write(img.Output)
	j.w = io.MultiWriter(vm.stdout, &j.out)

	// Allocation and the compiles below may run the collector; bill its
	// pauses to the arriving job, and pin the graph until it is rooted.
	prevJob := vm.curJob
	vm.curJob = j
	defer func() { vm.curJob = prevJob }()
	defer func() { vm.pinned = vm.pinned[:0] }()

	// Allocate the transferred objects (image IDs are 1-based; refs[0]
	// stays 0 so null remaps to null for free).
	refs := make([]Ref, len(img.Objects)+1)
	for i := range img.Objects {
		io := &img.Objects[i]
		var r Ref
		var err error
		if io.Class == "" {
			r, err = vm.allocArray(isa.ElemKind(io.Elem), io.Length)
		} else {
			r, err = vm.allocObject(vm.Prog.Lookup(io.Class))
		}
		if err != nil {
			return nil, fmt.Errorf("vm: rehydrate %s: %w", img.Name, err)
		}
		refs[i+1] = r
		vm.pinned = append(vm.pinned, r)
	}

	// Fill payloads, remapping references to the fresh addresses.
	for i := range img.Objects {
		io := &img.Objects[i]
		obj := refs[i+1]
		if io.Class == "" {
			if isa.ElemKind(io.Elem) == isa.ElemRef {
				for e, id := range io.Elems {
					vm.Machine.Mem.Write32(obj+isa.HeaderBytes+uint32(e)*4, refs[id])
				}
			} else if len(io.Data) > 0 {
				vm.Machine.Mem.WriteBytes(obj+isa.HeaderBytes, io.Data)
			}
			continue
		}
		cls := vm.Prog.Lookup(io.Class)
		for s, v := range io.Slots {
			vm.Heap.SetFieldSlot(obj, s, v)
		}
		for k := cls; k != nil; k = k.Super {
			for _, fd := range k.Fields {
				if fd.Type.IsRef() {
					vm.Heap.SetFieldSlot(obj, fd.Slot, uint64(refs[io.Slots[fd.Slot]]))
				}
			}
		}
	}

	// Statics of the job's class closure.
	for _, st := range img.Statics {
		cls := vm.Prog.Lookup(st.Class)
		for i, fd := range cls.Statics {
			v := st.Slots[i]
			if fd.Type.IsRef() {
				v = uint64(refs[v])
			}
			vm.Machine.Mem.Write64(vm.staticsBase+uint32(fd.Slot)*isa.SlotBytes, v)
		}
	}

	// Class-lock bindings: static synchronized sections keep excluding
	// against the very object the source's threads were locking.
	for _, cl := range img.ClassLocks {
		cls := vm.Prog.Lookup(cl.Class)
		vm.classes[cls.ID].lockObj = refs[cl.Obj]
	}

	// Build the thread tree locally; nothing registers until every
	// fallible step (the compiles) has passed.
	threads := make([]*Thread, len(img.Threads))
	live := 0
	for i := range img.Threads {
		it := &img.Threads[i]
		t := &Thread{Name: it.Name, job: j,
			pendingVal: it.PendingVal, pendingIsRef: it.PendingIsRef,
			pendingHasVal: it.PendingHasVal,
			waitCount:     int(it.WaitCount),
			Migrations:    it.Migrations, Steals: it.Steals,
			Result: it.Result, HasResult: it.HasResult,
		}
		if it.PendingHasVal && it.PendingIsRef {
			t.pendingVal = uint64(refs[it.PendingVal])
		}
		if it.Trap != nil {
			te := *it.Trap
			t.Trap = &te
		}
		t.JavaObj = refs[it.JavaObj]
		threads[i] = t
		if it.Terminated {
			t.State = StateTerminated
			continue
		}
		live++

		kind, err := isa.ParseCoreKind(it.Kind)
		if err != nil || !vm.Machine.HasKind(kind) {
			kind = vm.serviceKind()
		}
		vm.place(t, kind) // sets Kind/CoreID/needEnsure

		// Rebuild frames, compiling for the landing kind and re-entering
		// each at its bytecode boundary. Fresh compiles are charged to the
		// thread's start, exactly as migration charges them.
		var compileCycles uint64
		for _, fr := range it.Frames {
			if fr.Marker {
				rk, err := isa.ParseCoreKind(fr.ReturnKind)
				if err != nil || !vm.Machine.HasKind(rk) {
					rk = vm.serviceKind()
				}
				t.pushFrame(&Frame{Marker: true, ReturnKind: rk})
				continue
			}
			cls := vm.Prog.Lookup(fr.Class)
			m := cls.Methods[fr.Method]
			cm, cycles, err := vm.compileFor(t.Kind, m)
			if err != nil {
				return nil, fmt.Errorf("vm: rehydrate %s: %w", img.Name, err)
			}
			if cycles > 0 {
				noteCompile(t)
			}
			compileCycles += cycles
			f := rehydrateFrame(cm, &fr, refs)
			f.ctr = vm.Monitor.Counters(m.ID)
			f.ctr.Invokes++
			t.pushFrame(f)
		}

		vm.acquireOnResume(t, edgeHandoff) // the source released at the freeze
		t.ReadyAt = arrival + cell.Clock(it.ReadyDelay) + cell.Clock(compileCycles)
		if it.CooldownLeft > 0 {
			t.cooldownUntil = arrival + cell.Clock(it.CooldownLeft)
		}
		if it.Blocked {
			t.State = StateBlocked
		}
	}

	// Commit: register threads, join edges, queues, monitors, the job.
	for _, t := range threads {
		t.ID = vm.nextTID
		vm.nextTID++
		vm.threads = append(vm.threads, t)
		j.threads = append(j.threads, t)
		if t.State == StateTerminated {
			continue
		}
		vm.liveCount++
		if t.JavaObj != 0 {
			vm.byJavaObj[t.JavaObj] = t
		}
		if t.State != StateBlocked {
			vm.enqueue(t)
		}
	}
	for i := range img.Threads {
		for _, ji := range img.Threads[i].Joiners {
			threads[i].joiners = append(threads[i].joiners, threads[ji])
		}
	}
	for _, im := range img.Monitors {
		obj := refs[im.Obj]
		m := vm.monitorOf(obj)
		m.count = int(im.Count)
		if im.Owner >= 0 {
			m.owner = threads[im.Owner]
		}
		for _, b := range im.Blocked {
			m.blocked = append(m.blocked, threads[b])
		}
		for _, w := range im.Waiters {
			m.waiters = append(m.waiters, threads[w])
		}
		vm.writeLockWord(obj, m)
	}

	j.root = threads[0]
	j.live = live
	vm.pending++
	vm.jobs = append(vm.jobs, j)
	return j, nil
}

// rehydrateFrame rebuilds one activation from its image on a compiled
// method for the landing kind: PC re-enters at the recorded bytecode
// boundary, locals and operand stack move untouched except reference
// remapping (frame state is kind-independent at boundaries).
func rehydrateFrame(cm *jit.CompiledMethod, fr *ImageFrame, refs []Ref) *Frame {
	f := newFrame(cm)
	f.PC = int(cm.EntryOf[fr.BC])
	f.Locals = append([]uint64(nil), fr.Locals...)
	f.LocalRefs = append([]bool(nil), fr.LocalRefs...)
	// The operand stack may have grown past MaxStack (native glue
	// pushes); size for whichever is larger.
	if len(fr.Stack) > len(f.Stack) {
		f.Stack = make([]uint64, len(fr.Stack))
		f.StackRefs = make([]bool, len(fr.Stack))
	}
	copy(f.Stack, fr.Stack)
	copy(f.StackRefs, fr.StackRefs)
	f.SP = len(fr.Stack)
	for i, isRef := range f.LocalRefs {
		if isRef {
			f.Locals[i] = uint64(refs[f.Locals[i]])
		}
	}
	for i := 0; i < f.SP; i++ {
		if f.StackRefs[i] {
			f.Stack[i] = uint64(refs[f.Stack[i]])
		}
	}
	f.SyncObj = refs[fr.SyncObj]
	return f
}

// validateImage checks a JobImage's internal consistency against this
// VM's program before any machine state changes: every class and method
// reference resolves, every image object ID, thread index and bytecode
// index is in range. Corrupt or mismatched images error here, never
// panic mid-rehydration.
func (vm *VM) validateImage(img *JobImage) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("vm: rehydrate %s: invalid image: %s", img.Name, fmt.Sprintf(format, args...))
	}
	if len(img.Threads) == 0 {
		return bad("no threads")
	}
	nObj := uint32(len(img.Objects))
	okRef := func(id uint32) bool { return id <= nObj }
	class := func(name string) (*classfile.Class, error) {
		cls := vm.Prog.Lookup(name)
		if cls == nil {
			return nil, bad("unknown class %q", name)
		}
		return cls, nil
	}

	for i := range img.Objects {
		io := &img.Objects[i]
		if io.Class == "" {
			k := isa.ElemKind(io.Elem)
			if k > isa.ElemRef {
				return bad("object %d: bad element kind %d", i+1, io.Elem)
			}
			if k == isa.ElemRef {
				if uint32(len(io.Elems)) != io.Length {
					return bad("object %d: %d elems for length %d", i+1, len(io.Elems), io.Length)
				}
				for _, e := range io.Elems {
					if !okRef(e) {
						return bad("object %d: element ref %d out of range", i+1, e)
					}
				}
			} else if uint32(len(io.Data)) != io.Length*k.Size() {
				return bad("object %d: %d payload bytes for %d %s elements", i+1, len(io.Data), io.Length, k)
			}
			continue
		}
		cls, err := class(io.Class)
		if err != nil {
			return err
		}
		if len(io.Slots) != cls.InstanceSlots {
			return bad("object %d: %d slots for class %s (%d)", i+1, len(io.Slots), cls.Name, cls.InstanceSlots)
		}
		for k := cls; k != nil; k = k.Super {
			for _, fd := range k.Fields {
				if fd.Type.IsRef() && !okRef(uint32(io.Slots[fd.Slot])) {
					return bad("object %d: field %s ref out of range", i+1, fd.Name)
				}
			}
		}
	}

	for _, st := range img.Statics {
		cls, err := class(st.Class)
		if err != nil {
			return err
		}
		if len(st.Slots) != len(cls.Statics) {
			return bad("statics of %s: %d slots, class declares %d", st.Class, len(st.Slots), len(cls.Statics))
		}
		for i, fd := range cls.Statics {
			if fd.Type.IsRef() && !okRef(uint32(st.Slots[i])) {
				return bad("statics of %s: ref slot %d out of range", st.Class, i)
			}
		}
	}
	for _, cl := range img.ClassLocks {
		if _, err := class(cl.Class); err != nil {
			return err
		}
		if cl.Obj == 0 || !okRef(cl.Obj) {
			return bad("class lock of %s: ref %d out of range", cl.Class, cl.Obj)
		}
	}

	nThr := len(img.Threads)
	okThr := func(i int32) bool { return i >= 0 && int(i) < nThr }
	for i := range img.Threads {
		it := &img.Threads[i]
		if !okRef(it.JavaObj) {
			return bad("thread %d: JavaObj ref out of range", i)
		}
		if it.PendingHasVal && it.PendingIsRef && !okRef(uint32(it.PendingVal)) {
			return bad("thread %d: pending ref out of range", i)
		}
		for _, ji := range it.Joiners {
			if !okThr(ji) {
				return bad("thread %d: joiner index %d out of range", i, ji)
			}
		}
		if it.Terminated {
			continue
		}
		if len(it.Frames) == 0 {
			return bad("thread %d: live with no frames", i)
		}
		for fi := range it.Frames {
			fr := &it.Frames[fi]
			if fr.Marker {
				continue
			}
			cls, err := class(fr.Class)
			if err != nil {
				return err
			}
			if fr.Method < 0 || int(fr.Method) >= len(cls.Methods) {
				return bad("thread %d frame %d: method index %d out of range for %s", i, fi, fr.Method, cls.Name)
			}
			m := cls.Methods[fr.Method]
			if m.Code == nil {
				return bad("thread %d frame %d: method %s has no code", i, fi, m.Sig())
			}
			if fr.BC < 0 || int(fr.BC) >= len(m.Code) {
				return bad("thread %d frame %d: bytecode index %d out of range for %s", i, fi, fr.BC, m.Sig())
			}
			if len(fr.Stack) != len(fr.StackRefs) || len(fr.Locals) != len(fr.LocalRefs) {
				return bad("thread %d frame %d: ref maps do not match values", i, fi)
			}
			for s, isRef := range fr.LocalRefs {
				if isRef && !okRef(uint32(fr.Locals[s])) {
					return bad("thread %d frame %d: local %d ref out of range", i, fi, s)
				}
			}
			for s, isRef := range fr.StackRefs {
				if isRef && !okRef(uint32(fr.Stack[s])) {
					return bad("thread %d frame %d: stack %d ref out of range", i, fi, s)
				}
			}
			if !okRef(fr.SyncObj) {
				return bad("thread %d frame %d: sync ref out of range", i, fi)
			}
		}
	}
	for mi := range img.Monitors {
		im := &img.Monitors[mi]
		if im.Obj == 0 || !okRef(im.Obj) {
			return bad("monitor %d: object ref out of range", mi)
		}
		if im.Owner >= 0 && !okThr(im.Owner) {
			return bad("monitor %d: owner index out of range", mi)
		}
		for _, b := range append(append([]int32{}, im.Blocked...), im.Waiters...) {
			if !okThr(b) {
				return bad("monitor %d: queue index out of range", mi)
			}
		}
	}
	return nil
}
