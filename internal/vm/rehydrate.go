// Rehydrate: admitting a frozen JobImage on a target VM. The inverse
// of Freeze (snapshot.go): rebuild the heap reachable set with fresh
// allocations, re-link statics and class locks, reconstruct the thread
// tree — recompiling every frame's method for the kind its image names
// and re-entering at the recorded PC, as cross-kind migration does —
// and rebuild monitors and join edges.
//
// The walk is staged so a failure cannot leave the machine
// half-mutated: validate (pure), allocate (objects pinned against GC,
// zeroed so the collector can walk them), land payloads as the image
// has them and fix each up in place — refs.go's walks with the image-ID
// to heap-address map, the mirror of the freeze's last step — build
// threads locally (compiles may intern, allocate, and collect — the
// pinned set and the already-real references keep the transferred graph
// safe; an unregistered thread's frames are invisible to the collector
// and are fixed up once all are built), and only then commit:
// register threads, queues, monitors and the job itself. An error
// before the commit leaves only warm compiled methods and unreachable
// allocations behind — reusable work and collectable garbage, not
// corruption.
package vm

import (
	"fmt"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
	"herajvm/internal/jit"
)

// Rehydrate admits a frozen job image, resuming its thread tree at
// the given arrival (floored at the machine clock, like Submit). The
// image must come from a VM booted over the same program. The job keeps
// its original admission cycle, absolute deadline, verdict, accounting
// and captured output, so end-to-end latency and per-job reports span
// the hand-off; threads land through the normal placement path and pay
// real compile cycles for the target's core kinds. The JobSpec is
// unused — everything the job needs comes from the image; the parameter
// is kept only for the call in benchmark/probes.go.
func (vm *VM) Rehydrate(img *JobImage, arrival cell.Clock, _ JobSpec) (*Job, error) {
	if img == nil {
		return nil, fmt.Errorf("vm: rehydrate of nil image")
	}
	if err := vm.validateImage(img); err != nil {
		return nil, err
	}
	if now := vm.Machine.MaxClock(); arrival < now {
		arrival = now
	}

	j := &Job{vm: vm, ID: len(vm.jobs), Name: img.Name, AdmittedAt: img.AdmittedAt,
		Deadline: img.Deadline, Verdict: img.Verdict}
	j.Stats = img.Stats
	// The output already printed on the source comes first; the job's
	// threads append to it here.
	j.out.Write(img.Output)

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

	// toAddr is the fix-up every landed value goes through. validateImage
	// bounded every reference by len(refs) at full slot width.
	toAddr := func(id uint64) uint64 { return uint64(refs[id]) }

	for i := range img.Objects {
		io := &img.Objects[i]
		obj := refs[i+1]
		for e, id := range io.Elems {
			vm.Machine.Mem.Write32(obj+isa.HeaderBytes+uint32(e)*4, id)
		}
		if len(io.Data) > 0 {
			vm.Machine.Mem.WriteBytes(obj+isa.HeaderBytes, io.Data)
		}
		for s, v := range io.Slots {
			vm.Heap.SetFieldSlot(obj, s, v)
		}
		vm.mapObject(obj, toAddr)
	}

	// Statics of the job's class closure. Class-lock bindings: static
	// synchronized sections keep excluding against the very object the
	// source's threads were locking.
	for _, st := range img.Statics {
		cls := vm.Prog.Lookup(st.Class)
		for i, fd := range cls.Statics {
			vm.Machine.Mem.Write64(vm.staticAddr(fd), st.Slots[i])
		}
		vm.mapStatics(cls, toAddr)
	}
	for _, cl := range img.ClassLocks {
		cls := vm.Prog.Lookup(cl.Class)
		vm.classes[cls.ID].lockObj = cl.Obj
		vm.mapClassLock(cls, toAddr)
	}

	// Build the thread tree locally; nothing registers until every
	// fallible step (the compiles) has passed.
	threads := make([]*Thread, len(img.Threads))
	live := 0
	for i := range img.Threads {
		it := &img.Threads[i]
		t := &Thread{Name: it.Name, job: j, JavaObj: it.JavaObj,
			waitCount:  int(it.WaitCount),
			Migrations: it.Migrations, Steals: it.Steals,
			Result: it.Result, HasResult: it.HasResult,
		}
		if it.Trap != nil {
			te := *it.Trap
			t.Trap = &te
		}
		threads[i] = t
		if it.Terminated {
			t.State = StateTerminated
			continue
		}
		live++

		// A freezable thread runs on its top frame's kind, so that kind
		// places it (sets Kind/CoreID/needEnsure).
		vm.place(t, vm.frameKind(&it.Frames[len(it.Frames)-1]))

		// Rebuild frames, compiling each for its kind and re-entering it
		// at its recorded PC. Fresh compiles are charged to the thread's
		// start, exactly as migration charges them.
		var compileCycles uint64
		for _, fr := range it.Frames {
			cls := vm.Prog.Lookup(fr.Class)
			m := cls.Methods[fr.Method]
			cm, cycles, err := vm.compileFor(vm.frameKind(&fr), m)
			if err != nil {
				return nil, fmt.Errorf("vm: rehydrate %s: %w", img.Name, err)
			}
			if cycles > 0 {
				noteCompile(t)
			}
			compileCycles += cycles
			f := rehydrateFrame(cm, &fr)
			vm.profileFrame(f)
			t.pushFrame(f)
		}

		vm.acquireOnResume(t, edgeHandoff) // the source released at the freeze
		t.ReadyAt = arrival + cell.Clock(it.ReadyDelay) + cell.Clock(compileCycles)
		if it.Blocked {
			t.State = StateBlocked
		}
	}

	for _, t := range threads {
		t.mapRefs(toAddr)
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
	}

	j.root = threads[0]
	j.live = live
	vm.pending++
	vm.jobs = append(vm.jobs, j)
	return j, nil
}

// frameKind is the kind an image frame's code is compiled for on this
// machine: the kind it names, or the service kind when the machine has
// none of it.
func (vm *VM) frameKind(fr *ImageFrame) isa.CoreKind {
	kind, err := isa.ParseCoreKind(fr.Kind)
	if err != nil || !vm.Machine.HasKind(kind) {
		return vm.serviceKind()
	}
	return kind
}

// rehydrateFrame rebuilds one activation from its image on a compiled
// method for its kind: PC, locals and operand stack move
// untouched (a bytecode index is the PC on every kind, and frame state
// between instructions is kind-independent; validateImage held all
// three to the method's own shape, so they fit the arrays newFrame
// sized).
func rehydrateFrame(cm *jit.CompiledMethod, fr *ImageFrame) *Frame {
	f := newFrame(cm)
	f.PC = int(fr.BC)
	copy(f.Locals, fr.Locals)
	f.SP = copy(f.Stack, fr.Stack)
	f.SyncObj = fr.SyncObj
	return f
}

// validateImage checks a JobImage against this VM's program before any
// machine state changes, in two steps. Shape: every class and method
// resolves, every object carries exactly the payload its kind has at
// exactly its size, thread indices are in range, a terminated thread
// carries no frames, and every frame has the
// locals and operand depth the method's own verifier derives at its
// bytecode index — so the executor cannot be handed a frame its code
// would index out of, and refs.go's image walk, which types each frame
// by that same state, may index without re-checking. References: that
// one walk bounds every reference by the object count, at the slot's
// full width. Corrupt or mismatched images error here, never panic
// later, and each refusal names the rule it applies.
func (vm *VM) validateImage(img *JobImage) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("vm: rehydrate %s: invalid image: %s", img.Name, fmt.Sprintf(format, args...))
	}
	if len(img.Threads) == 0 {
		return bad("no threads")
	}
	class := func(name string) (*classfile.Class, error) {
		cls := vm.Prog.Lookup(name)
		if cls == nil {
			return nil, bad("unknown class %q", name)
		}
		return cls, nil
	}

	for i := range img.Objects {
		io := &img.Objects[i]
		if io.Class != "" {
			cls, err := class(io.Class)
			if err != nil {
				return err
			}
			if len(io.Data)+len(io.Elems) != 0 || len(io.Slots) != cls.InstanceSlots {
				return bad("object %d: not %d field slots of class %s", i+1, cls.InstanceSlots, cls.Name)
			}
			continue
		}
		k := isa.ElemKind(io.Elem)
		if k > isa.ElemRef {
			return bad("object %d: bad element kind %d", i+1, io.Elem)
		}
		// Sizes compare at 64 bits: Length*Size wraps at 32, and an array
		// whose header says more than its allocation holds reads past it.
		size := uint64(io.Length) * uint64(k.Size())
		payload, other := uint64(len(io.Data)), len(io.Elems)
		if k == isa.ElemRef {
			payload, other = uint64(len(io.Elems))*4, len(io.Data)
		}
		if payload != size {
			return bad("object %d: %d payload bytes, not the %d of %d %s elements", i+1, payload, size, io.Length, k)
		}
		if other+len(io.Slots) != 0 {
			return bad("object %d: a %s array carries another kind's payload or field slots", i+1, k)
		}
		if size >= uint64(vm.Heap.Size()) {
			return bad("object %d: %d %s elements do not fit the heap", i+1, io.Length, k)
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
	}
	for _, cl := range img.ClassLocks {
		if _, err := class(cl.Class); err != nil {
			return err
		}
		if cl.Obj == 0 {
			return bad("class lock of %s: null object", cl.Class)
		}
	}

	nThr := len(img.Threads)
	okThr := func(i int32) bool { return i >= 0 && int(i) < nThr }
	for i := range img.Threads {
		it := &img.Threads[i]
		for _, ji := range it.Joiners {
			if !okThr(ji) {
				return bad("thread %d: joiner index %d out of range", i, ji)
			}
		}
		n := len(it.Frames)
		if it.Terminated {
			if n > 0 {
				return bad("thread %d: terminated, but carries %d frame(s)", i, n)
			}
			continue
		}
		if n == 0 {
			return bad("thread %d: live with no frames", i)
		}
		if err := vm.validateFrames(it); err != nil {
			return bad("thread %d %v", i, err)
		}
	}
	for mi := range img.Monitors {
		im := &img.Monitors[mi]
		if im.Obj == 0 {
			return bad("monitor %d: null object", mi)
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

	var err error
	img.mapRefs(vm, func(id uint64) uint64 {
		if id > uint64(len(img.Objects)) && err == nil {
			err = bad("reference %#x out of range (%d objects)", id, len(img.Objects))
		}
		return id
	})
	return err
}

// validateFrames holds a live thread's frames to their methods' type
// state. A frame awaits a callee's value exactly when the frame above it
// returns one: it holds one operand fewer than the verifier's state at
// its bytecode index — its PC already points past the call, whose result
// the return will push. The top frame awaits nothing: a callee that
// returned across a migration pushed its value there before leaving.
func (vm *VM) validateFrames(it *ImageThread) error {
	awaits := false // whether the frame in hand awaits a value from above
	for fi := len(it.Frames) - 1; fi >= 0; fi-- {
		fr := &it.Frames[fi]
		cls := vm.Prog.Lookup(fr.Class)
		if cls == nil {
			return fmt.Errorf("frame %d: unknown class %q", fi, fr.Class)
		}
		if fr.Method < 0 || int(fr.Method) >= len(cls.Methods) {
			return fmt.Errorf("frame %d: method index %d out of range for %s", fi, fr.Method, cls.Name)
		}
		m := cls.Methods[fr.Method]
		if fr.BC < 0 || int(fr.BC) >= len(m.Code) {
			return fmt.Errorf("frame %d: bytecode index %d out of range for %s", fi, fr.BC, m.Sig())
		}
		stack, locals, err := classfile.KindsAt(m, int(fr.BC))
		if err != nil {
			return fmt.Errorf("frame %d: %w", fi, err)
		}
		if awaits {
			if len(stack) == 0 {
				return fmt.Errorf("frame %d: awaits a value that %s has no room for at pc %d", fi, m.Sig(), fr.BC)
			}
			stack = stack[:len(stack)-1]
		}
		if len(fr.Locals) != len(locals) || len(fr.Stack) != len(stack) {
			return fmt.Errorf("frame %d: not the type state of %s at pc %d (%d locals, stack %v)",
				fi, m.Sig(), fr.BC, len(locals), stack)
		}
		awaits = m.Ret != classfile.Void
	}
	return nil
}
