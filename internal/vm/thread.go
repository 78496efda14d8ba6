package vm

import (
	"fmt"

	"herajvm/internal/cell"
	"herajvm/internal/isa"
	"herajvm/internal/jit"
)

// ThreadState is a Java thread's lifecycle state.
type ThreadState uint8

const (
	// StateReady means runnable, sitting in a core's ready queue.
	StateReady ThreadState = iota
	// StateRunning means currently executing on a core.
	StateRunning
	// StateBlocked means parked on a monitor or join/wait set or an
	// in-flight syscall.
	StateBlocked
	// StateTerminated means the root method returned or a trap killed
	// the thread.
	StateTerminated
)

var stateNames = [...]string{"ready", "running", "blocked", "terminated"}

// String returns the state name.
func (s ThreadState) String() string { return stateNames[s] }

// Frame is one method activation: locals and operand stack. Which slots
// hold a reference is not recorded here: the verifier's type state at
// (CM.M, PC) says so, as JikesRVM's baseline compiler reference maps do
// (refs.go, Thread.mapRefs).
//
// CM.Target is the kind the frame's code was compiled for, which is the
// kind it runs on: where two adjacent frames differ, the thread has a
// migration point (§3.1), and a return across it migrates back to the
// caller's kind.
type Frame struct {
	CM *jit.CompiledMethod
	PC int

	Locals []uint64
	Stack  []uint64
	SP     int

	// SyncObj is the monitor released on return from a synchronized
	// method (0 = none).
	SyncObj Ref

	// ctr is this method's ledger counters (ledger.go), attached before
	// the frame first executes.
	ctr *methodCounters

	// vals is the array Locals and Stack are carved from; it outlives
	// the activation on the thread's free list.
	vals []uint64
}

func newFrame(cm *jit.CompiledMethod) *Frame {
	f := new(Frame)
	f.activate(cm)
	return f
}

// activate makes f a fresh activation of cm: every field zero but the
// method, locals first and operand stack after them in one values
// array, all zero. A recycled frame's array is reused when it is large
// enough, and cleared over the whole new extent: verified code reads no
// slot before writing it, but a new and a recycled frame must not be
// told apart by anything that looks (a trace, a test, a debugger).
func (f *Frame) activate(cm *jit.CompiledMethod) {
	nl := cm.M.MaxLocals
	ns := cm.M.MaxStack
	if ns < 4 {
		ns = 4
	}
	vals := f.vals
	if cap(vals) < nl+ns {
		vals = make([]uint64, nl+ns)
	} else {
		vals = vals[:nl+ns]
		clear(vals)
	}
	// Capacities are clipped: a push past MaxStack is an index panic,
	// never a write into the neighbouring slice or a larger recycled
	// array's unused tail.
	*f = Frame{
		CM:     cm,
		vals:   vals,
		Locals: vals[:nl:nl],
		Stack:  vals[nl : nl+ns : nl+ns],
	}
}

func (f *Frame) push(v uint64) {
	f.Stack[f.SP] = v
	f.SP++
}

func (f *Frame) pop() uint64 {
	f.SP--
	return f.Stack[f.SP]
}

// Thread is one Java thread: a stack of frames plus scheduling state.
type Thread struct {
	ID     int
	Name   string
	Frames []*Frame
	State  ThreadState
	// free holds this thread's dead frames for invoke to reuse; it is
	// host-side scratch, invisible to the GC scan and to job images.
	free []*Frame

	// JavaObj is the java/lang/Thread instance this thread executes (0
	// for the primordial main thread until stdlib wires it).
	JavaObj Ref

	// Kind and CoreID say where the thread runs / is queued.
	Kind   isa.CoreKind
	CoreID int
	// ReadyAt is the simulated time the thread may next run.
	ReadyAt cell.Clock

	// needEnsure requests a code-cache ensure of the top frame before
	// resuming (set when a thread lands on an SPE).
	needEnsure bool
	// needPurge, when non-zero, is the edge the thread acquires on its
	// next dispatch (acquireOnResume sets it, runWhile consumes it).
	needPurge edge
	// needStage requests a double-buffered tile prefetch of the kernel
	// body's arrays into the data cache before the first quantum (set on
	// kernel workers landing on local-store cores; runs after needPurge
	// so the acquire cannot invalidate the staged tiles).
	needStage bool
	// pinned marks a data-parallel kernel worker bound to its core for
	// life: the scheduler's steal and migrate passes skip it, and the
	// placement policy's invoke-time decision is bypassed. The SPMD
	// barrier depends on one worker per core making independent progress.
	pinned bool
	// kernel links a worker (and its blocked caller) to the launch it
	// belongs to; nil for ordinary threads.
	kernel *kernelLaunch
	// pendingNative carries a JNI native across the SPE->PPE migration.
	pendingNative *pendingNativeCall
	// pendingThrow carries an in-flight exception across a migration
	// point during unwinding (0 = none: a null exception is never
	// dispatched).
	pendingThrow Ref

	// Trap records the error that killed the thread, if any.
	Trap error

	// Result holds the root method's return value for the VM's caller.
	Result    uint64
	HasResult bool

	// joiners are threads blocked in join() on this thread.
	joiners []*Thread

	// waitCount preserves monitor recursion across Object.wait.
	waitCount int

	// Migrations counts core-type switches, for reports; Steals counts
	// same-kind work steals that moved this thread.
	Migrations uint64
	Steals     uint64

	// job is the admission the thread belongs to, never nil: every
	// thread starts through the job API and spawned threads inherit it.
	job *Job
}

func (t *Thread) top() *Frame { return t.Frames[len(t.Frames)-1] }

// crossing reports whether t is queued on another kind than its top
// frame was compiled for: a synchronized call that blocked at its
// migration point, or a native suspended across one. Its next dispatch
// moves it; nothing else may.
func (t *Thread) crossing() bool { return t.top().CM.Target != t.Kind }

// movingFrames returns the frames a cross-kind move of t recompiles:
// those above its innermost migration point, which share the top frame's
// kind. A frame beneath keeps its code — a return goes back to its kind.
func (t *Thread) movingFrames() []*Frame {
	n := len(t.Frames)
	i := n
	for i > 0 && t.Frames[i-1].CM.Target == t.Frames[n-1].CM.Target {
		i--
	}
	return t.Frames[i:]
}

func (t *Thread) pushFrame(f *Frame) { t.Frames = append(t.Frames, f) }

// popFrame pops the top frame onto the thread's free list: the caller
// may read it only until the thread's next newFrame reuses it.
func (t *Thread) popFrame() *Frame {
	f := t.Frames[len(t.Frames)-1]
	t.Frames = t.Frames[:len(t.Frames)-1]
	t.free = append(t.free, f)
	return f
}

// newFrame is newFrame(cm) on the most recently recycled frame, when
// there is one.
func (t *Thread) newFrame(cm *jit.CompiledMethod) *Frame {
	n := len(t.free)
	if n == 0 {
		return newFrame(cm)
	}
	f := t.free[n-1]
	t.free = t.free[:n-1]
	f.activate(cm)
	return f
}

// String identifies the thread for diagnostics.
func (t *Thread) String() string {
	return fmt.Sprintf("thread %d (%s) [%s]", t.ID, t.Name, t.State)
}

// Trap errors: the VM models Java's unchecked exceptions as thread
// traps; throw.go delivers one to a catch handler when a frame has one.
type TrapError struct {
	Kind   string
	Detail string
	Method string
	PC     int
}

// Error formats the trap like an uncaught-exception report.
func (e *TrapError) Error() string {
	return fmt.Sprintf("uncaught %s: %s (at %s pc %d)", e.Kind, e.Detail, e.Method, e.PC)
}
