// Rehydrate: admitting a frozen JobImage on a target VM. The inverse
// of Freeze (snapshot.go): rebuild the heap reachable set with fresh
// allocations, re-link statics and class locks, reconstruct the thread
// tree — recompiling every frame's method for the kind the thread lands
// on and re-entering at the recorded PC, as cross-kind migration does —
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
	"io"

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
	policy, err := decodePolicy(img.Policy)
	if err != nil {
		return nil, err
	}

	j := &Job{vm: vm, ID: len(vm.jobs), Name: img.Name, AdmittedAt: img.AdmittedAt,
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
			pendingVal: it.PendingVal, pendingIsRef: it.PendingIsRef,
			pendingHasVal: it.PendingHasVal,
			waitCount:     int(it.WaitCount),
			Migrations:    it.Migrations, Steals: it.Steals,
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

		kind, err := isa.ParseCoreKind(it.Kind)
		if err != nil || !vm.Machine.HasKind(kind) {
			kind = vm.serviceKind()
		}
		vm.place(t, kind) // sets Kind/CoreID/needEnsure

		// Rebuild frames, compiling for the landing kind and re-entering
		// each at its recorded PC. Fresh compiles are charged to the
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
			f := rehydrateFrame(cm, &fr)
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
		vm.writeLockWord(obj, m)
	}

	j.root = threads[0]
	j.live = live
	vm.pending++
	vm.jobs = append(vm.jobs, j)
	return j, nil
}

// rehydrateFrame rebuilds one activation from its image on a compiled
// method for the landing kind: PC, locals and operand stack move
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
// machine state changes, in three steps. Shape: every class and method
// resolves, every object carries exactly the payload its kind has at
// exactly its size, flag slices cover their values, thread indices are
// in range — after which refs.go's image walk may index without
// re-checking. References: that one walk bounds every reference by the
// object count, at the slot's full width. Frame type state: every
// non-marker frame of a live thread has the locals, operand depth and
// reference flags the method's own verifier derives at its bytecode
// index, so the executor cannot be handed a frame its code would index
// out of. Corrupt or mismatched images error here, never panic later.
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
		if payload != size || other+len(io.Slots) != 0 || size >= uint64(vm.Heap.Size()) {
			return bad("object %d: not the payload of %d %s elements", i+1, io.Length, k)
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
		for fi := range it.Frames {
			fr := &it.Frames[fi]
			if len(fr.Stack) != len(fr.StackRefs) || len(fr.Locals) != len(fr.LocalRefs) {
				return bad("thread %d frame %d: ref maps do not match values", i, fi)
			}
		}
		if it.Terminated {
			continue
		}
		if len(it.Frames) == 0 {
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

// validateFrames holds a live thread's non-marker frames to their
// methods' type state. A frame awaiting a callee's value holds one
// operand fewer than the verifier's state at its bytecode index — its PC
// already points past the call, whose result the return will push: that
// is a frame whose next non-marker frame above returns a value, and a
// frame with only markers above it when the thread carries a pending
// value (the executor's resume pops a top marker and pushes the pending
// value into the frame beneath; it never pushes into a top frame).
func (vm *VM) validateFrames(it *ImageThread) error {
	awaits := false // whether the frame in hand awaits a value from above
	for fi := len(it.Frames) - 1; fi >= 0; fi-- {
		fr := &it.Frames[fi]
		if fr.Marker {
			if fi == len(it.Frames)-1 {
				awaits = it.PendingHasVal
			}
			continue
		}
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
		if len(fr.Locals) != len(locals) || len(fr.Stack) != len(stack) ||
			!flagsMatch(locals, fr.LocalRefs) || !flagsMatch(stack, fr.StackRefs) {
			return fmt.Errorf("frame %d: not the type state of %s at pc %d (%d locals, stack %v)",
				fi, m.Sig(), fr.BC, len(locals), stack)
		}
		awaits = m.Ret != classfile.Void
	}
	return nil
}
