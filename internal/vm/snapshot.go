// Job snapshots: freezing a running job into a portable JobImage at a
// safe point, for inter-shard hand-off. Every kind lowers a bytecode to
// one instruction, so between instructions a frame — PC included — is
// already kind-independent inside one machine (cross-kind migration
// swaps only its compiled method); a snapshot is the same equivalence
// lifted across machines — every thread of the job parks between
// instructions, and the job's whole reachable state (thread trees, frames, heap graph, statics, monitors, join
// edges, accounting) is copied into the image as it stands, and one
// walk of the image then replaces every heap address by a dense image
// ID. Which slots hold a reference — for the discovery here, for that
// walk, and for Rehydrate's validation and fix-up (rehydrate.go) —
// is said once, in refs.go; the binary wire format is imagecodec.go's.
//
// The safe-point contract: a job is freezable when every live thread is
// Ready or Blocked (never mid-quantum), carries no in-flight runtime
// state (a deferred migration, an unwinding exception, a suspended
// native call). Freeze drives the machine toward that point: it
// raises a per-job freeze barrier that makes the executor park the job's
// running threads before their next instruction instead of finishing
// the quantum, then extracts the job. Freezing is part of the simulated
// schedule — the same freeze request at the same cycle replays byte for
// byte.
package vm

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// ErrFrozen is returned by Job.Wait for a job that
// was frozen off this machine: the job will never complete here, so
// waiting on it is an error, not a wedge. Match with errors.Is.
var ErrFrozen = errors.New("job is frozen")

// ErrJobDone is Freeze's report that the job completed before (or
// while driving toward) its safe point — there is nothing to freeze,
// and nothing went wrong.
var ErrJobDone = errors.New("job already done")

// ErrNotFreezable is Freeze's report that the job is entangled with
// state outside itself (a monitor shared with another job's thread, a
// cross-job join, a non-serializable policy or trap) and cannot be
// extracted. The job keeps running where it is. Match with errors.Is.
var ErrNotFreezable = errors.New("job not freezable")

// Policy tags for the image's policy override encoding. Only the named
// built-in policies serialize; a custom Policy implementation makes the
// job unfreezable (the image could not rebuild it on the target).
const (
	policyNone uint8 = iota
	policyAnnotation
	policyFixed
	policyMonitoring
)

// ImagePolicy is a job's placement-policy override in portable form.
type ImagePolicy struct {
	Tag  uint8
	Kind string // FixedPolicy's kind name
	// MonitoringPolicy's thresholds.
	FPThreshold  float64
	MemThreshold float64
	MinCycles    uint64
}

// ImageFrame is one serialized method activation. Non-marker frames
// name their method portably — class name plus the method's index in
// Class.Methods — and record the bytecode index, which is the frame's PC
// on every kind: the target recompiles for its own cores' kinds and
// re-enters there.
type ImageFrame struct {
	Marker     bool
	ReturnKind string // marker frames: the kind to migrate back to

	Class  string
	Method int32
	BC     int32

	Locals    []uint64
	LocalRefs []bool
	// Stack holds the live operand stack (depth == SP at capture).
	Stack     []uint64
	StackRefs []bool
	SyncObj   uint32 // image object ID (0 = none)
}

// ImageThread is one serialized thread of the job's tree.
type ImageThread struct {
	Name       string
	Terminated bool
	Blocked    bool
	// ReadyDelay is ReadyAt minus the freeze clock for ready threads
	// still waiting out a charged latency (a syscall round trip).
	ReadyDelay uint64
	Kind       string // core kind the thread was bound to (placement hint)
	JavaObj    uint32 // image object ID of the java/lang/Thread instance

	PendingHasVal bool
	PendingIsRef  bool
	PendingVal    uint64

	WaitCount    int32
	Migrations   uint64
	Steals       uint64
	CooldownLeft uint64

	// Result/Trap survive for terminated threads (a finished root's
	// checksum must outlive a hand-off of its still-running siblings).
	Result    uint64
	HasResult bool
	Trap      *TrapError

	// Joiners are indices (into JobImage.Threads) of threads blocked in
	// join() on this one.
	Joiners []int32

	Frames []ImageFrame
}

// ImageObject is one heap object of the job's reachable set. Image IDs
// are 1-based discovery order; 0 is null.
type ImageObject struct {
	Class string // "" for arrays

	Elem   uint8 // isa.ElemKind, arrays only
	Length uint32
	Data   []byte   // primitive array payload
	Elems  []uint32 // reference array elements (image IDs)

	Slots []uint64 // instance field slots (reference fields hold image IDs)
}

// ImageStatics carries one class's static slot values (declaration
// order; reference slots hold image IDs). The statics closure is the
// set of classes the job's code can reach — see captureJob.
type ImageStatics struct {
	Class string
	Slots []uint64
}

// ImageMonitor is one monitor involving the job's threads: owner and
// queues are thread indices (-1 = no owner), the object an image ID.
type ImageMonitor struct {
	Obj     uint32
	Owner   int32
	Count   int32
	Blocked []int32
	Waiters []int32
}

// ImageClassLock binds a class's static-synchronized lock object to a
// transferred heap object, so mutual exclusion survives the hand-off.
type ImageClassLock struct {
	Class string
	Obj   uint32
}

// JobImage is a frozen job: everything Rehydrate needs to resume the
// job's thread tree on another VM booted over the same program.
type JobImage struct {
	Name       string
	AdmittedAt cell.Clock // original admission — latency stays end-to-end
	Deadline   cell.Clock // absolute
	FrozenAt   cell.Clock // machine clock at capture
	Verdict    Verdict
	Stats      JobStats
	Output     []byte // System.out captured before the freeze
	Policy     ImagePolicy

	Threads    []ImageThread
	Objects    []ImageObject
	Statics    []ImageStatics
	Monitors   []ImageMonitor
	ClassLocks []ImageClassLock
}

// encodePolicy maps a job's policy override to its portable form.
func encodePolicy(p Policy) (ImagePolicy, error) {
	switch pol := p.(type) {
	case nil:
		return ImagePolicy{Tag: policyNone}, nil
	case *AnnotationPolicy:
		return ImagePolicy{Tag: policyAnnotation}, nil
	case AnnotationPolicy:
		return ImagePolicy{Tag: policyAnnotation}, nil
	case FixedPolicy:
		return ImagePolicy{Tag: policyFixed, Kind: pol.Kind.String()}, nil
	case *FixedPolicy:
		return ImagePolicy{Tag: policyFixed, Kind: pol.Kind.String()}, nil
	case *MonitoringPolicy:
		return ImagePolicy{Tag: policyMonitoring, FPThreshold: pol.FPThreshold,
			MemThreshold: pol.MemThreshold, MinCycles: pol.MinCycles}, nil
	default:
		return ImagePolicy{}, fmt.Errorf("%w: policy %T does not serialize", ErrNotFreezable, p)
	}
}

// decodePolicy rebuilds a policy override from its portable form.
func decodePolicy(ip ImagePolicy) (Policy, error) {
	switch ip.Tag {
	case policyNone:
		return nil, nil
	case policyAnnotation:
		return &AnnotationPolicy{}, nil
	case policyFixed:
		kind, err := isa.ParseCoreKind(ip.Kind)
		if err != nil {
			return nil, fmt.Errorf("vm: image policy: %w", err)
		}
		return FixedPolicy{Kind: kind}, nil
	case policyMonitoring:
		return &MonitoringPolicy{FPThreshold: ip.FPThreshold,
			MemThreshold: ip.MemThreshold, MinCycles: ip.MinCycles}, nil
	default:
		return nil, fmt.Errorf("vm: image policy: unknown tag %d", ip.Tag)
	}
}

// jobFreezable reports whether the job sits at a safe point: every live
// thread parked (Ready or Blocked, never mid-quantum) and free of
// in-flight runtime state. It is evaluated between scheduling rounds,
// where no thread is Running.
func (vm *VM) jobFreezable(j *Job) bool {
	for _, t := range j.threads {
		if t.State == StateTerminated {
			continue
		}
		if t.State == StateRunning {
			return false
		}
		if t.hasPendingMigrate || t.hasPendingThrow || t.pendingNative != nil {
			return false
		}
	}
	return true
}

// Freeze drives the machine until the job reaches a safe point, then
// serializes and detaches it. Other jobs' threads progress normally
// while driving — the freeze is part of the shared, deterministic
// schedule. A nil ctx never cancels; a cancelled ctx aborts the freeze
// cleanly (parked threads resume, the job keeps running here) and
// returns the context's error. ErrJobDone means the job completed
// first; ErrNotFreezable means the job is entangled with state outside
// itself and stays put. On success the job is detached from this
// machine: its threads leave the scheduler, Done stays false, Frozen
// reports true, and Job.Wait returns ErrFrozen.
func (vm *VM) Freeze(ctx context.Context, j *Job) (*JobImage, error) {
	if j == nil {
		return nil, fmt.Errorf("vm: freeze of nil job")
	}
	if j.done {
		return nil, ErrJobDone
	}
	if j.frozen {
		return nil, fmt.Errorf("vm: job %d (%s) already frozen", j.ID, j.Name)
	}
	// A custom policy can never rehydrate; refuse before driving.
	if _, err := encodePolicy(j.policy); err != nil {
		return nil, err
	}
	// An in-flight kernel launch can never park at a safe point: the
	// caller is blocked inside a native and the pinned workers hold a
	// half-completed SPMD barrier no other machine could resume. Refuse
	// rather than wedge or capture a torn barrier.
	if j.kernels > 0 {
		return nil, kernelInFlightErr(j)
	}
	// An already-cancelled context aborts before any driving, even if
	// the job happens to sit at a safe point right now.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	j.freezeBarrier = true
	defer func() { j.freezeBarrier = false }()
	for !vm.jobFreezable(j) {
		if ctx != nil {
			select {
			case <-ctx.Done():
				vm.unparkJob(j)
				return nil, ctx.Err()
			default:
			}
		}
		steps := 0
		err := vm.runWhile(func() bool { steps++; return steps > 1 || j.done })
		if err != nil {
			vm.unparkJob(j)
			return nil, err
		}
		if j.done {
			return nil, ErrJobDone
		}
		// A launch that started while driving toward the safe point makes
		// the job unfreezable mid-freeze: abort cleanly, parked threads
		// resume, the kernel runs on here.
		if j.kernels > 0 {
			vm.unparkJob(j)
			return nil, kernelInFlightErr(j)
		}
	}
	if j.kernels > 0 {
		vm.unparkJob(j)
		return nil, kernelInFlightErr(j)
	}

	// The capture reads main memory: edgeWorldStop, as before a collection.
	// The cores are charged — the flush is real work the hand-off costs.
	vm.quiesce(edgeWorldStop)

	img, monObjs, err := vm.captureJob(j)
	if err != nil {
		vm.unparkJob(j)
		return nil, err
	}
	vm.detachJob(j, monObjs)
	return img, nil
}

// kernelInFlightErr is the ErrNotFreezable report for a job holding an
// incomplete SPMD barrier.
func kernelInFlightErr(j *Job) error {
	return fmt.Errorf("vm: job %d (%s) has a data-parallel kernel in flight: %w",
		j.ID, j.Name, ErrNotFreezable)
}

// unparkJob aborts an in-progress freeze: threads the executor parked
// for the freeze barrier re-enter the scheduler
// and the job runs on as if nothing happened.
func (vm *VM) unparkJob(j *Job) {
	for _, t := range j.parked {
		if t.State != StateBlocked {
			continue
		}
		vm.enqueue(t) // ReadyAt is in the past; it queues as ready
	}
	j.parked = nil
}

// detachJob removes a captured job from the machine: every live thread
// leaves the scheduler and terminates locally, monitors owned within
// the job are dropped, and the job's slot in the admission order stays
// (frozen, not done) so replay order is untouched.
func (vm *VM) detachJob(j *Job, monObjs []Ref) {
	for _, t := range j.threads {
		if t.State == StateTerminated {
			continue
		}
		if t.State == StateReady {
			vm.scheduler.Remove(vm.coreFor(t.Kind, t.CoreID), t)
		}
		if t.JavaObj != 0 {
			delete(vm.byJavaObj, t.JavaObj)
		}
		t.State = StateTerminated
		t.Frames = nil
		t.free = nil
		t.joiners = nil
		t.pendingNative = nil
		t.hasPendingThrow = false
		t.pendingThrow = 0
		t.pendingHasVal = false
		t.pendingVal = 0
		t.pendingIsRef = false
		vm.liveCount--
	}
	for _, obj := range monObjs {
		delete(vm.monitors, obj)
		vm.Heap.SetLockWord(obj, 0)
	}
	j.live = 0
	j.frozen = true
	j.parked = nil
	vm.pending--
}

// capture is the serialization walk: it discovers the job's reachable
// heap in deterministic order (thread roots, then involved monitors,
// then the statics closure, to a fixpoint), assigning dense 1-based
// image IDs, and computes the class closure — every class the job's
// code can name — whose statics travel with the job.
type capture struct {
	vm    *VM
	id    map[Ref]uint32
	order []Ref
	queue []Ref
	// discover is root as a refs.go visitor.
	discover refMap

	classSeen map[*classfile.Class]bool
	classList []*classfile.Class
}

// root queues a heap reference for discovery (0 and non-heap values are
// ignored, as in the collector's root scan).
func (c *capture) root(r Ref) {
	if r == 0 || !c.vm.Heap.Contains(r) {
		return
	}
	if _, ok := c.id[r]; ok {
		return
	}
	c.order = append(c.order, r)
	c.id[r] = uint32(len(c.order)) // 1-based; 0 is null
	c.queue = append(c.queue, r)
}

// imageID is the visitor that turns a copied image into a portable one:
// a discovered object's address becomes its ID, anything else null.
func (c *capture) imageID(v uint64) uint64 { return uint64(c.id[Ref(v)]) }

// addClass folds a class into the closure: its supers, interfaces, and
// every class its methods' code names (the resolved class, method and
// field operands), recursively. The closure bounds which statics the
// image carries — the set the rehydrated job could ever read or write.
func (c *capture) addClass(cls *classfile.Class) {
	if cls == nil || c.classSeen[cls] {
		return
	}
	c.classSeen[cls] = true
	c.classList = append(c.classList, cls)
	c.addClass(cls.Super)
	for _, in := range cls.Interfaces {
		c.addClass(in)
	}
	for _, m := range cls.Methods {
		for i := range m.Code {
			switch ref := m.Code[i].Operand.(type) {
			case *classfile.Class:
				c.addClass(ref)
			case *classfile.Method:
				c.addClass(ref.Class)
			case *classfile.Field:
				c.addClass(ref.Class)
			}
		}
	}
}

// drain walks queued objects breadth-first, folding each object's class
// into the closure and queueing its outgoing references.
func (c *capture) drain() {
	for len(c.queue) > 0 {
		obj := c.queue[0]
		c.queue = c.queue[1:]
		if cls := c.vm.classOf(obj); cls != nil {
			c.addClass(cls)
		}
		c.vm.mapObject(obj, c.discover)
	}
}

// captureJob serializes a job sitting at its safe point. It returns the
// image plus the heap objects of the job's monitors (for detachJob).
// ErrNotFreezable reports entanglement with non-job state.
func (vm *VM) captureJob(j *Job) (*JobImage, []Ref, error) {
	inJob := make(map[*Thread]int, len(j.threads))
	for i, t := range j.threads {
		inJob[t] = i
	}
	if len(j.threads) == 0 || j.threads[0] != j.root {
		return nil, nil, fmt.Errorf("%w: job %d has no root thread", ErrNotFreezable, j.ID)
	}

	// Entanglement checks: joins and traps first (cheap), monitors next.
	for _, t := range vm.threads {
		for _, joiner := range t.joiners {
			_, jIn := inJob[joiner]
			_, tIn := inJob[t]
			if jIn != tIn {
				return nil, nil, fmt.Errorf("%w: join edge crosses the job boundary", ErrNotFreezable)
			}
		}
	}
	for _, t := range j.threads {
		if t.Trap != nil {
			if _, ok := t.Trap.(*TrapError); !ok {
				return nil, nil, fmt.Errorf("%w: trap %T does not serialize", ErrNotFreezable, t.Trap)
			}
		}
	}

	// Monitors involving the job, in deterministic (object Ref) order;
	// every participant must be a job thread.
	type capMon struct {
		obj Ref
		m   *monitor
	}
	var mons []capMon
	for obj, m := range vm.monitors {
		_, involved := inJob[m.owner]
		for _, b := range m.blocked {
			if _, ok := inJob[b]; ok {
				involved = true
			}
		}
		for _, w := range m.waiters {
			if _, ok := inJob[w]; ok {
				involved = true
			}
		}
		if !involved {
			continue
		}
		if m.owner != nil {
			if _, ok := inJob[m.owner]; !ok {
				return nil, nil, fmt.Errorf("%w: monitor shared with another job", ErrNotFreezable)
			}
		}
		for _, b := range append(append([]*Thread{}, m.blocked...), m.waiters...) {
			if _, ok := inJob[b]; !ok {
				return nil, nil, fmt.Errorf("%w: monitor shared with another job", ErrNotFreezable)
			}
		}
		mons = append(mons, capMon{obj, m})
	}
	sort.Slice(mons, func(a, b int) bool { return mons[a].obj < mons[b].obj })

	// Heap discovery: thread roots in creation order, then monitor
	// objects, then the statics closure to a fixpoint (static refs may
	// reach objects whose classes widen the closure, whose statics add
	// roots).
	cap := &capture{vm: vm, id: make(map[Ref]uint32),
		classSeen: make(map[*classfile.Class]bool)}
	cap.discover = visitor(cap.root)
	for _, t := range j.threads {
		for _, f := range t.Frames {
			if !f.Marker {
				cap.addClass(f.CM.M.Class)
			}
		}
		t.mapRefs(cap.discover)
	}
	for _, cm := range mons {
		cap.root(cm.obj)
	}
	cap.drain()
	for scanned := 0; scanned < len(cap.classList); scanned++ {
		vm.mapStatics(cap.classList[scanned], cap.discover)
		cap.drain() // may extend classList; the cursor picks the new tail up
	}

	img := &JobImage{
		Name:       j.Name,
		AdmittedAt: j.AdmittedAt,
		Deadline:   j.Deadline,
		FrozenAt:   vm.Machine.MaxClock(),
		Verdict:    j.Verdict,
		Stats:      j.Stats,
		Output:     append([]byte(nil), j.out.Bytes()...),
	}
	var err error
	if img.Policy, err = encodePolicy(j.policy); err != nil {
		return nil, nil, err
	}

	// Everything below is copied as it stands, heap addresses included;
	// the one mapRefs at the end makes them image IDs.

	// Objects in discovery order.
	for _, obj := range cap.order {
		id := vm.Heap.ClassIDOf(obj)
		if !isArrayClassID(id) {
			cls := vm.classByID[id]
			io := ImageObject{Class: cls.Name, Slots: make([]uint64, cls.InstanceSlots)}
			for i := range io.Slots {
				io.Slots[i] = vm.Heap.FieldSlot(obj, i)
			}
			img.Objects = append(img.Objects, io)
			continue
		}
		k := arrayKindOf(id)
		io := ImageObject{Elem: uint8(k), Length: vm.Heap.LengthOf(obj)}
		if k == isa.ElemRef { // 4-byte elements, kept typed: they become IDs
			io.Elems = make([]uint32, io.Length)
			for i := range io.Elems {
				io.Elems[i] = vm.Machine.Mem.Read32(obj + isa.HeaderBytes + uint32(i)*4)
			}
		} else {
			io.Data = make([]byte, io.Length*k.Size())
			vm.Machine.Mem.ReadBytes(obj+isa.HeaderBytes, io.Data)
		}
		img.Objects = append(img.Objects, io)
	}

	// Statics of the closure, sorted by class name for a canonical image;
	// a class lock travels when the job's graph reaches the lock object.
	classes := append([]*classfile.Class(nil), cap.classList...)
	sort.Slice(classes, func(a, b int) bool { return classes[a].Name < classes[b].Name })
	for _, cls := range classes {
		if len(cls.Statics) == 0 {
			continue
		}
		st := ImageStatics{Class: cls.Name, Slots: make([]uint64, len(cls.Statics))}
		for i, fd := range cls.Statics {
			st.Slots[i] = vm.Machine.Mem.Read64(vm.staticAddr(fd))
		}
		img.Statics = append(img.Statics, st)
	}
	for _, cls := range classes {
		if lock := vm.classes[cls.ID].lockObj; cap.id[lock] != 0 {
			img.ClassLocks = append(img.ClassLocks, ImageClassLock{Class: cls.Name, Obj: lock})
		}
	}

	// Threads in creation order. Freeze-parked threads serialize as
	// ready (they were running; the park is an artifact of the freeze).
	parked := make(map[*Thread]bool, len(j.parked))
	for _, t := range j.parked {
		parked[t] = true
	}
	threadIdx := func(t *Thread) int32 {
		i, ok := inJob[t]
		if !ok {
			return -1
		}
		return int32(i)
	}
	for _, t := range j.threads {
		it := ImageThread{
			Name:          t.Name,
			Kind:          t.Kind.String(),
			JavaObj:       t.JavaObj,
			PendingHasVal: t.pendingHasVal,
			PendingIsRef:  t.pendingIsRef,
			PendingVal:    t.pendingVal,
			WaitCount:     int32(t.waitCount),
			Migrations:    t.Migrations,
			Steals:        t.Steals,
			Result:        t.Result,
			HasResult:     t.HasResult,
		}
		if t.Trap != nil {
			te := *t.Trap.(*TrapError)
			it.Trap = &te
		}
		switch {
		case t.State == StateTerminated:
			it.Terminated = true
		case t.State == StateBlocked && !parked[t]:
			it.Blocked = true
		default: // ready, or freeze-parked
			if t.ReadyAt > img.FrozenAt {
				it.ReadyDelay = uint64(t.ReadyAt - img.FrozenAt)
			}
		}
		if t.cooldownUntil > img.FrozenAt {
			it.CooldownLeft = uint64(t.cooldownUntil - img.FrozenAt)
		}
		for _, joiner := range t.joiners {
			it.Joiners = append(it.Joiners, threadIdx(joiner))
		}
		for _, f := range t.Frames {
			if f.Marker {
				it.Frames = append(it.Frames,
					ImageFrame{Marker: true, ReturnKind: f.ReturnKind.String()})
				continue
			}
			m := f.CM.M
			mi := int32(-1)
			for i, mm := range m.Class.Methods {
				if mm == m {
					mi = int32(i)
					break
				}
			}
			if mi < 0 {
				return nil, nil, fmt.Errorf("%w: method %s not in its class table", ErrNotFreezable, m.Sig())
			}
			fr := ImageFrame{Class: m.Class.Name, Method: mi, BC: int32(f.PC), SyncObj: f.SyncObj}
			stack, locals := f.kinds()
			fr.Locals, fr.LocalRefs = imageSlots(f.Locals, locals)
			fr.Stack, fr.StackRefs = imageSlots(f.Stack, stack)
			it.Frames = append(it.Frames, fr)
		}
		img.Threads = append(img.Threads, it)
	}

	// Monitors last (thread indices are now stable).
	monObjs := make([]Ref, 0, len(mons))
	for _, cm := range mons {
		im := ImageMonitor{Obj: cm.obj, Owner: -1, Count: int32(cm.m.count)}
		if cm.m.owner != nil {
			im.Owner = threadIdx(cm.m.owner)
		}
		for _, b := range cm.m.blocked {
			im.Blocked = append(im.Blocked, threadIdx(b))
		}
		for _, w := range cm.m.waiters {
			im.Waiters = append(im.Waiters, threadIdx(w))
		}
		img.Monitors = append(img.Monitors, im)
		monObjs = append(monObjs, cm.obj)
	}

	img.mapRefs(vm, cap.imageID)
	return img, monObjs, nil
}
