package vm

import (
	"fmt"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
	"herajvm/internal/jit"
	"herajvm/internal/profile"
	"herajvm/internal/sched"
)

// compileFor returns m compiled for kind, compiling lazily; the second
// result is the compile cost in cycles when a fresh compile happened
// ("a method will only be compiled for a particular core architecture if
// it is to be executed by a thread running on that core type", §3.1).
func (vm *VM) compileFor(kind isa.CoreKind, m *classfile.Method) (*jit.CompiledMethod, uint64, error) {
	c := vm.Compiler(kind)
	if c == nil {
		return nil, 0, fmt.Errorf("vm: no compiler for core kind %s (machine %s)", kind, vm.Machine.Describe())
	}
	if cm := c.Lookup(m); cm != nil {
		return cm, 0, nil
	}
	cm, err := c.Compile(m)
	if err != nil {
		return nil, 0, err
	}
	return cm, c.CompileCycles(m), nil
}

// newThread creates a live thread of job without scheduling it. Every
// thread has a job — an entry thread its submission, a Thread.start
// child and a kernel worker their parent's — so nothing downstream asks
// whether t.job is there.
func (vm *VM) newThread(job *Job, name string) *Thread {
	t := &Thread{ID: vm.nextTID, Name: name, job: job}
	vm.nextTID++
	vm.threads = append(vm.threads, t)
	vm.liveCount++
	job.live++
	job.threads = append(job.threads, t)
	return t
}

// enqueue places a ready thread on its core's scheduler queue.
func (vm *VM) enqueue(t *Thread) {
	t.State = StateReady
	core := vm.coreFor(t.Kind, t.CoreID)
	vm.scheduler.Enqueue(core, t, t.ReadyAt)
}

// wake makes a blocked thread runnable at the given time, to acquire
// edge e — what it was blocked on — before it runs again.
func (vm *VM) wake(t *Thread, at cell.Clock, e edge) {
	t.ReadyAt = at
	vm.acquireOnResume(t, e)
	vm.enqueue(t)
}

// pickCore chooses the core of the given kind with the smallest
// predicted drain time — the scheduler's DrainEstimate: queue depth
// times mean predicted cost per queued task, plus the core's clock
// skew — for a thread entering that kind's pool. Ties resolve to the
// lower queue depth, then the lowest ID, so with equal clocks the
// choice degenerates to the classic least-loaded pick. The ranking is
// sched.BestCore — the same one the admission pipeline's deadline
// probe uses, so a verdict and the placement it predicted cannot
// disagree. The machine must have at least one core of the kind.
func (vm *VM) pickCore(kind isa.CoreKind) int {
	pos, _ := sched.BestCore(vm.scheduler, vm.kindCores[kind])
	return pos
}

// place assigns a thread a core of the given kind, falling back to the
// service pool when the topology has no core of that kind (a
// service-hosting core always exists; the topology validation
// guarantees it).
func (vm *VM) place(t *Thread, kind isa.CoreKind) {
	if !vm.Machine.HasKind(kind) {
		kind = vm.serviceKind()
	}
	t.Kind = kind
	t.CoreID = vm.pickCore(kind)
	if kind.UsesLocalStore() {
		t.needEnsure = true
	}
}

// startThread schedules a new Java thread of job whose first frame
// invokes entry with the given arguments (receiver first for instance
// methods); readyAt is the simulated time it becomes runnable. The
// machine's policy places it, and it bills its scheduling events to the
// job's counters. Everything fallible — placement, the entry compile,
// the argument check — happens before the thread is registered, so a
// failed start leaves no ghost live thread behind to deadlock later
// drains.
func (vm *VM) startThread(job *Job, name string, entry *classfile.Method, readyAt cell.Clock,
	args []uint64) (*Thread, error) {

	kind := vm.placeKind(entry)
	cm, compileCycles, err := vm.compileFor(kind, entry)
	if err != nil {
		return nil, err
	}
	f := newFrame(cm)
	if len(args) > len(f.Locals) {
		return nil, fmt.Errorf("vm: %d args exceed %d locals of %s", len(args), len(f.Locals), entry.Sig())
	}

	t := vm.newThread(job, name)
	vm.place(t, kind)
	if compileCycles > 0 {
		noteCompile(t)
	}
	f.ctr = vm.Monitor.Counters(entry.ID)
	f.ctr.Invokes++
	copy(f.Locals, args)
	t.pushFrame(f)
	t.ReadyAt = readyAt + compileCycles
	vm.enqueue(t)
	return t, nil
}

// runWhile drives the machine until stop reports true. The machine is
// advanced conservatively: each step runs one quantum on the core whose
// next available work has the smallest timestamp, so multi-core
// interleaving and bus contention are deterministic — and independent
// of where the driving loop pauses, so waiting on jobs one at a time
// replays identically to draining them all at once.
func (vm *VM) runWhile(stop func() bool) error {
	for !stop() {
		core, t := vm.pickNext()
		if t == nil {
			if vm.liveCount == 0 {
				return nil
			}
			return vm.deadlockError()
		}
		core.AdvanceTo(t.ReadyAt)
		t.State = StateRunning
		vm.curJob = t.job // GC pauses bill to the executing job
		vm.maybeAdapt(core)
		if t.hasPendingMigrate {
			t.hasPendingMigrate = false
			if t.pendingMigrate != core.Kind {
				// Complete a migration deferred by a blocked synchronized
				// call: insert the marker beneath the callee frame.
				nf := t.popFrame()
				t.pushFrame(&Frame{Marker: true, ReturnKind: core.Kind, ReturnCore: core.ID})
				t.pushFrame(nf)
				vm.migrate(core, t, t.pendingMigrate, 0)
				continue
			}
		}
		vm.resumeAcquire(core, t)
		if t.needEnsure {
			t.needEnsure = false
			vm.ensureTopFrame(core, t)
		}
		if t.needStage {
			// Kernel workers prefetch their body's array tiles through the
			// MFC before the first quantum; after the acquire-purge above,
			// so the purge cannot drop the staged tiles.
			t.needStage = false
			vm.stageKernelTiles(core, t)
		}
		if t.hasPendingThrow {
			// Continue unwinding an exception that crossed a migration
			// boundary; the first frame examined is a caller, so its PC
			// already points past the migrated call.
			ex := t.pendingThrow
			t.hasPendingThrow = false
			t.pendingThrow = 0
			if !vm.dispatchThrow(core, t, ex, 1) {
				name := "Throwable"
				if cls := vm.classOf(ex); cls != nil {
					name = cls.Name
				}
				vm.trap(core, t, &TrapError{Kind: name, Detail: vm.throwableMessage(ex)})
			}
			if t.State != StateRunning {
				if t.State == StateTerminated {
					vm.finishThread(core, t)
				}
				continue
			}
		}
		if t.pendingNative != nil {
			vm.resumePendingNative(core, t)
			if t.State != StateRunning {
				continue
			}
		}
		vm.execute(core, t, vm.Cfg.Quantum)
		switch t.State {
		case StateRunning: // quantum expired: back of the queue
			vm.enqueue(t)
		case StateTerminated:
			vm.finishThread(core, t)
		}
		// Blocked/Ready threads were re-queued by whatever blocked them.
	}
	return nil
}

// pickNext asks the configured scheduler for the machine-wide next
// (core, thread) pair; nil thread means nothing is queued anywhere.
func (vm *VM) pickNext() (*cell.Core, *Thread) {
	core, task := vm.scheduler.PickNext()
	if task == nil {
		return nil, nil
	}
	return core, task.(*Thread)
}

// handoff is the one way a live thread changes core (steal, scheduler
// or marker migration): it crosses edgeHandoff, so program order holds
// within the thread, and rebinds it. Returns when the thread may start:
// readyAt, or the end of a local-store source's write-back if later.
func (vm *VM) handoff(t *Thread, from, to *cell.Core, readyAt cell.Clock) cell.Clock {
	vm.release(from, edgeHandoff)
	if from.Kind.UsesLocalStore() && from.Now > readyAt {
		readyAt = from.Now
	}
	t.Kind = to.Kind
	t.CoreID = to.ID
	t.ReadyAt = readyAt
	t.needEnsure = to.Kind.UsesLocalStore()
	vm.acquireOnResume(t, edgeHandoff)
	return readyAt
}

// onSteal is the scheduler's hook for same-kind work stealing: hand the
// stolen thread off to the thief core. The returned clock is handoff's:
// the steal penalty, or the victim's write-back completing if later.
func (vm *VM) onSteal(task sched.Task, from, to *cell.Core, readyAt cell.Clock) cell.Clock {
	t := task.(*Thread)
	noteStolen(t)
	return vm.handoff(t, from, to, readyAt)
}

// behaviourMinCycles is the observation floor for behaviour-aware task
// pricing: a thread's innermost profiled method must have accumulated
// this many cycles before its FP/memory composition is trusted to
// override the kind's static migration affinity. Below it the shares
// are dominated by warm-up noise.
const behaviourMinCycles = 50_000

// taskCost is the scheduler's per-task cost predictor
// (sched.Options.CostOf): the cycles one queued thread is expected to
// consume per scheduling round on the core. The baseline is the
// scheduling quantum scaled by the kind's migration affinity, so
// reluctant kinds (the VPU) look proportionally slower to drain to
// both the drain-time placement estimate and the cross-kind migration
// gate; within one kind's pool the affinity cancels and drain ordering
// reduces to queue depth plus clock skew.
//
// On machines with a VPU, a thread whose innermost profiled method has
// been observed long enough (behaviourMinCycles) is priced by its
// measured cycle composition instead: the quantum is split into the
// method's FP, main-memory and remaining shares, and the FP and memory
// slices are scaled by how much worse this kind's predicted FP/memory
// cost is than the machine's best (isa FPScore/MemScore, normalized by
// the boot-time minima). An FP-heavy thread therefore drains cheapest
// on the VPU — its FP slice scales by 1.0 while an SPE's scales by
// FPScore(SPE)/FPScore(VPU) — so the migrate gate and drain estimates
// route it there despite the VPU's reluctant static affinity.
// Machines without a VPU (the paper's PS3 baseline) keep the plain
// affinity pricing, which also pins the Figure-4 goldens.
func (vm *VM) taskCost(task sched.Task, core *cell.Core) uint64 {
	quantum := float64(vm.Cfg.Quantum)
	if ctr := vm.observedCounters(task); ctr != nil {
		fp, memS := ctr.FPShare(), ctr.MemShare()
		factor := (1 - fp - memS) +
			fp*(core.Kind.FPScore()/vm.minFPScore) +
			memS*(core.Kind.MemScore()/vm.minMemScore)
		return uint64(quantum * factor)
	}
	return uint64(quantum * core.Kind.MigrateAffinity())
}

// observedCounters returns the task's innermost profiled method
// counters when behaviour-aware pricing applies: the machine has a VPU
// to route FP work onto, the task is a thread with a profiled frame,
// and that method has cleared the observation floor. Nil otherwise
// (including the nil probe tasks the admission estimator passes).
func (vm *VM) observedCounters(task sched.Task) *profile.MethodCounters {
	if !vm.Machine.HasKind(isa.VPU) {
		return nil
	}
	t, ok := task.(*Thread)
	if !ok || t == nil {
		return nil
	}
	ctr := t.hotCounters()
	if ctr == nil {
		return nil
	}
	var total uint64
	for _, c := range ctr.Cycles {
		total += c
	}
	if total < behaviourMinCycles {
		return nil
	}
	return ctr
}

// recompileEstimate is the migrate scheduler's feasibility-and-cost
// probe (sched.Options.RecompileCost): whether the thread can execute
// on the target core's kind right now, and the predicted cycle cost of
// compiling its frames' methods for that kind. A thread is migratable
// when it carries no in-flight runtime state (a deferred migration, an
// unwinding exception, a suspended native call); its frames need no
// look — between instructions, which is the only place a queued thread
// can be, frame state is the kind-independent state the verifier
// describes, and a PC means the same on every kind. The estimate does not
// deduplicate repeated methods on the stack, so it slightly
// overestimates recursive stacks — a conservative error: the gate only
// gets harder to pass, and the migration itself charges actual
// (deduplicated) compile cycles.
func (vm *VM) recompileEstimate(task sched.Task, to *cell.Core) (uint64, bool) {
	t := task.(*Thread)
	if t.pinned {
		return 0, false // kernel workers never leave their core
	}
	if t.hasPendingMigrate || t.hasPendingThrow || t.pendingNative != nil {
		return 0, false
	}
	// Migration hysteresis: a thread that just migrated cross-kind is
	// not migratable again until its core's clock passes the cooldown
	// horizon, so oscillating load cannot ping-pong it between kinds.
	if t.cooldownUntil != 0 && vm.coreFor(t.Kind, t.CoreID).Now < t.cooldownUntil {
		return 0, false
	}
	c := vm.compilers[to.Kind]
	if c == nil {
		return 0, false
	}
	var cost uint64
	for _, f := range t.Frames {
		if f.Marker || f.CM == nil {
			continue
		}
		if c.Lookup(f.CM.M) == nil {
			cost += c.CompileCycles(f.CM.M)
		}
	}
	return cost, true
}

// onMigrate is the scheduler's hook for cost-gated cross-kind
// migration (sched.Options.OnMigrate): transplant the thread onto the
// target core's kind. Every non-marker frame is recompiled for the
// target (lazily — warm methods are free) and takes the new compilation;
// its PC, locals and operand stack move untouched — every kind lowers a
// bytecode to one instruction (jit.lowerOne), so all three mean the same
// there. Fresh compile cycles are charged to the thread's start like a
// cold code-cache fill, exactly as startThread charges a new thread's
// entry compile. The thread moves through handoff, as a steal does. The
// returned clock only ever moves later than the offered landing time;
// ok == false vetoes the migration (a compile failure, e.g. a full code
// region) with no thread or cache state changed — methods compiled
// before the failing one stay registered in the target kind's compiler,
// which is reusable work, not corruption: any later execution on that
// kind finds them warm and pays nothing.
func (vm *VM) onMigrate(task sched.Task, from, to *cell.Core, readyAt cell.Clock) (cell.Clock, bool) {
	t := task.(*Thread)
	vm.curJob = t.job // recompiles may intern and allocate: bill GC here
	// Compile everything first so a late failure cannot leave the
	// thread half-transplanted.
	var compileCycles uint64
	for _, f := range t.Frames {
		if f.Marker || f.CM == nil {
			continue
		}
		_, cycles, err := vm.compileFor(to.Kind, f.CM.M)
		if err != nil {
			return readyAt, false
		}
		if cycles > 0 {
			noteCompile(t)
		}
		compileCycles += cycles
	}
	landing := vm.handoff(t, from, to, readyAt)
	for _, f := range t.Frames {
		if !f.Marker && f.CM != nil {
			f.CM = vm.compilers[to.Kind].Lookup(f.CM.M) // warm since the loop above
		}
	}
	readyAt = landing + compileCycles
	t.ReadyAt = readyAt
	vm.noteMigrated(t, landing)
	return readyAt, true
}

func (vm *VM) deadlockError() error {
	blocked := 0
	for _, t := range vm.threads {
		if t.State == StateBlocked {
			blocked++
		}
	}
	return fmt.Errorf("vm: %w (%d live threads, %d blocked)",
		ErrDeadlock, vm.liveCount, blocked)
}

// joinWakeCycles is the wake-up latency charged to a thread blocked on
// another's termination (a join, or a kernel launch's SPMD barrier):
// the hand-off cost.
const joinWakeCycles = 100

// finishThread retires a terminated thread, completes its job when it
// was the job's last live thread, and wakes its joiners after the join
// hand-off latency. Termination releases edgeJoin; each joiner acquires
// it as it wakes.
func (vm *VM) finishThread(core *cell.Core, t *Thread) {
	vm.release(core, edgeJoin)
	vm.liveCount--
	job := t.job
	job.live--
	if job.live == 0 && !job.done {
		job.done = true
		job.CompletedAt = core.Now
		job.DeadlineMet = job.Deadline == 0 || core.Now <= job.Deadline
		vm.pending--
		// Feed the admission pipeline's service-time estimator: a
		// halving EWMA of observed admission-to-completion cycles.
		measured := uint64(job.CompletedAt - job.AdmittedAt)
		if vm.jobServiceEWMA == 0 {
			vm.jobServiceEWMA = measured
		} else {
			vm.jobServiceEWMA = (vm.jobServiceEWMA + measured) / 2
		}
	}
	for _, j := range t.joiners {
		vm.wake(j, core.Now+joinWakeCycles, edgeJoin)
	}
	t.joiners = nil
	t.free = nil // the thread stays in vm.threads; its dead frames need not
	if t.kernel != nil {
		// SPMD barrier: the launch completes (and the blocked caller
		// wakes) when its last worker retires — even one that trapped, so
		// a failing kernel cannot wedge the caller.
		vm.kernelWorkerDone(core, t)
	}
}

// migrationBaseCycles + migrationWordCycles*words is the cost of
// packaging a thread's parameters and re-queueing it on the other core
// type (§3.1's migration points).
const (
	migrationBaseCycles = 600
	migrationWordCycles = 8
)

// migrate hands t off to a core of another kind (one the machine has)
// after the current instruction, charging the parameter-packaging and
// transfer cost (§3.1). The caller must already have pushed the migration
// marker (for call-site migrations) or arranged the frame stack.
func (vm *VM) migrate(core *cell.Core, t *Thread, target isa.CoreKind, words int) {
	to := vm.coreFor(target, vm.pickCore(target))
	cost := migrationBaseCycles + migrationWordCycles*uint64(words)
	t.ReadyAt = vm.handoff(t, core, to, core.Now) + cost
	vm.noteMigrated(t, t.ReadyAt)
	vm.scheduler.NoteMigration(core, to)
	vm.enqueue(t)
}

// ensureTopFrame warms the software code cache for the method about to
// execute (invoked when a thread lands on a local-store core).
func (vm *VM) ensureTopFrame(core *cell.Core, t *Thread) {
	if vm.ccaches[core.Index] == nil || len(t.Frames) == 0 {
		return
	}
	f := t.top()
	if f.Marker || f.CM == nil {
		return
	}
	vm.ensureCode(core, f.CM)
}

// ensureCode runs the TOC/TIB/method lookup on a local-store core for a
// compiled method, transferring code on a miss.
func (vm *VM) ensureCode(core *cell.Core, cm *jit.CompiledMethod) {
	cls := cm.M.Class
	meta := vm.classes[cls.ID]
	now, _ := vm.ccaches[core.Index].EnsureMethod(core.Now, cls.ID, meta.tibAddr, meta.tibSize,
		cm.M.ID, cm.Addr, cm.Size)
	core.Now = now
}

// reenterCode charges the return-path code-cache lookup for the caller
// frame on a local-store core.
func (vm *VM) reenterCode(core *cell.Core, cm *jit.CompiledMethod) {
	cls := cm.M.Class
	meta := vm.classes[cls.ID]
	core.Now = vm.ccaches[core.Index].Reenter(core.Now, cls.ID, meta.tibAddr, meta.tibSize,
		cm.M.ID, cm.Addr, cm.Size)
}
