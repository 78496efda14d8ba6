package vm

import (
	"bytes"
	"fmt"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// JobStats is per-job scheduling accounting: the events the job's own
// threads (the root thread and everything it transitively started)
// experienced, as opposed to the machine-wide Core.Stats counters that
// aggregate over every job sharing the booted VM.
type JobStats struct {
	// Migrations counts cross-kind moves of the job's threads — both
	// policy-driven marker migrations and the migrate scheduler's
	// cost-gated moves.
	Migrations uint64
	// Steals counts same-kind work steals of the job's threads.
	Steals uint64
	// Compiles counts fresh method compilations the job's threads
	// triggered (entry compiles, invoke-time compiles, migration
	// recompiles); warm code-cache lookups are free and uncounted.
	Compiles uint64
	// GCPauses and GCCycles count the stop-the-world collections the
	// job's own allocations triggered and their total pause cycles.
	// The whole pause is billed to the allocating job — the collector
	// stalls every core, but the job whose allocation pressure forced
	// the collection owns that time, the way output and compiles are
	// already attributed — so SLO percentiles under concurrent jobs
	// cannot hide collector time. Collections triggered outside any
	// job (boot-time interning) land in VM.GCUnattributedCycles;
	// per-job GC cycles plus the unattributed bucket always sum to
	// VM.GCCycles.
	GCPauses uint64
	GCCycles uint64
	// KernelLaunches counts Parallel.forRange fan-outs the job's threads
	// issued; KernelWorkers the SPMD workers those launches spawned; and
	// KernelDMABytes the bytes kernel workers staged into local stores by
	// double-buffered tile prefetch (a subset of the machine-wide DMA
	// traffic, attributed to the launching job).
	KernelLaunches uint64
	KernelWorkers  uint64
	KernelDMABytes uint64
}

// Job is one admitted unit of work on a booted VM: a root thread
// started from a named entry method, plus every thread it transitively
// spawned. The job carries its own accounting — admission and
// completion cycles, captured output, scheduling-event counters — so
// many jobs can share one machine without their results blurring into
// the VM-wide aggregates.
type Job struct {
	// ID is the job's admission sequence number (0, 1, ...).
	ID int
	// Name labels the job in reports.
	Name string
	// AdmittedAt is the simulated cycle the job was admitted — the
	// requested arrival, floored at the machine clock at submission.
	AdmittedAt cell.Clock
	// CompletedAt is the cycle the job's last thread retired (0 until
	// the job completes).
	CompletedAt cell.Clock
	// Deadline is the job's absolute completion deadline — AdmittedAt
	// plus the requested relative deadline — or 0 when the submission
	// carried none.
	Deadline cell.Clock
	// Verdict is the admission pipeline's decision for this job. Shed
	// jobs never run: they are done at admission with no threads.
	Verdict Verdict
	// DeadlineMet reports whether the job completed by its deadline
	// (true for completed jobs without one; always false for shed
	// jobs). Meaningful once Done.
	DeadlineMet bool

	// Stats accumulates the job's scheduling events.
	Stats JobStats

	root    *Thread
	threads []*Thread
	live    int
	done    bool
	// kernels counts the job's in-flight kernel launches (callers parked
	// at an SPMD barrier). A job with kernels > 0 refuses Freeze: the
	// barrier state — pinned workers mid-chunk, a caller blocked in a
	// native — is not serializable between instructions.
	kernels int
	// frozen marks a job serialized off this machine by Freeze: it
	// will never complete here (done stays false), and Wait returns
	// ErrFrozen for it. freezeBarrier asks the executor to park the
	// job's threads before their next instruction (the quiesce step
	// of a freeze); parked collects the threads so parked.
	frozen        bool
	freezeBarrier bool
	parked        []*Thread
	// out is the job's System.out: the print natives write here, and
	// nothing else does.
	out bytes.Buffer
	// vm is the machine the job was admitted on; Wait drives it.
	vm *VM
}

// Done reports whether every thread of the job has terminated.
func (j *Job) Done() bool { return j.done }

// Frozen reports whether the job was serialized off this machine by
// Freeze. A frozen job never completes here; its continuation lives
// in the JobImage the freeze produced.
func (j *Job) Frozen() bool { return j.frozen }

// Root returns the job's root thread (its Result holds the entry
// method's return value once the job is done).
func (j *Job) Root() *Thread { return j.root }

// Output returns the System.out text the job's threads have printed so
// far (complete once the job is done).
func (j *Job) Output() string { return j.out.String() }

// Cycles returns the job's admission-to-completion time, or 0 while
// the job is still running.
func (j *Job) Cycles() cell.Clock {
	if !j.done {
		return 0
	}
	return j.CompletedAt - j.AdmittedAt
}

// Err returns the first trap among the job's threads in creation
// order, or nil.
func (j *Job) Err() error { return firstTrap(j.threads) }

// Result summarises one completed job.
type Result struct {
	// Cycles is the job's admission-to-completion time: the cycle its
	// last thread retired minus the cycle it was admitted. (Before the
	// session API this was the global machine-clock delta, which only
	// made sense for one run at a time.)
	Cycles cell.Clock
	// Millis is Cycles at the machine's configured clock rate
	// (MachineConfig.ClockHz; the Cell's 3.2 GHz by default).
	Millis float64
	// Value is the entry method's return value (low bits for int).
	Value uint64
	// HasValue reports whether the entry method returned a value.
	HasValue bool
	// Output is the System.out text the job's own threads printed.
	Output string

	// AdmittedAt and CompletedAt bound the job in simulated time.
	AdmittedAt  cell.Clock
	CompletedAt cell.Clock
	// Verdict is the admission pipeline's decision for the job; Shed is
	// true when it was refused at admission (Verdict == Shed), in which
	// case the job never ran: Cycles, Value and Output are zero and
	// DeadlineMet is false.
	Verdict Verdict
	Shed    bool
	// Deadline is the job's absolute completion deadline (0 = none) and
	// DeadlineMet whether the job completed by it (true when it had
	// none).
	Deadline    cell.Clock
	DeadlineMet bool
	// JobStats is the job's own accounting, as the VM kept it: the
	// scheduling events its threads experienced (Migrations, Steals,
	// Compiles), the collections its allocations forced and their pause
	// cycles (GCPauses, GCCycles — billed to the job, so serving
	// percentiles cannot hide GC), and its kernel launches
	// (KernelLaunches, KernelWorkers, KernelDMABytes). The fields read as
	// the Result's own: res.Migrations.
	JobStats
}

// Submit runs a submission through the admission pipeline: resolve
// the static entry method, floor the arrival at the machine's current
// clock, and decide a verdict from the scheduler's drain estimates
// under Config.Admission. An admitted (or delayed) job gets a fresh
// root thread runnable at its arrival; a shed job is recorded —
// occupying its slot in the total (arrival cycle, submission sequence)
// admission order — but never runs, so replaying the same submission
// script against the same driving schedule reproduces the same
// verdicts and the same machine byte for byte. The job does not
// execute until the machine is driven (Job.Wait, Drain or RunUntil);
// submissions made before driving share the machine and are scheduled
// against each other. A shed job's Wait returns at once with a Result
// whose Shed flag is set.
//
// The error return is for malformed submissions (unknown class or
// method, an instance entry, bad arguments); shedding is not an error —
// it is the admission pipeline doing its job, reported as the Verdict.
func (vm *VM) Submit(spec JobSpec) (*Job, Verdict, error) {
	m, arrival, kind, err := vm.entry(spec)
	if err != nil {
		return nil, VerdictShed, err
	}
	name := spec.Name
	if name == "" {
		name = spec.Class + "." + spec.Method
	}
	var deadline cell.Clock
	if spec.Deadline != 0 {
		deadline = arrival + spec.Deadline
	}

	j := &Job{vm: vm, ID: len(vm.jobs), Name: name, AdmittedAt: arrival, Deadline: deadline}
	j.Verdict = vm.admissionVerdict(kind, arrival, deadline)
	if j.Verdict == VerdictShed {
		// Shed at admission: the job is complete without ever running.
		// It holds its place in the admission order so interleaved shed
		// decisions cannot perturb the (arrival, sequence) total order
		// of the jobs that did get in.
		j.done = true
		j.CompletedAt = arrival
		vm.jobs = append(vm.jobs, j)
		return j, j.Verdict, nil
	}
	prevJob := vm.curJob
	vm.curJob = j
	root, err := vm.startThread(j, name, m, arrival, spec.Args)
	vm.curJob = prevJob
	if err != nil {
		return nil, VerdictShed, err
	}
	j.root = root
	vm.pending++
	vm.jobs = append(vm.jobs, j)
	return j, j.Verdict, nil
}

// entry is the checking Submit and Probe share: it resolves the
// submission's static entry method, floors its arrival at the machine
// clock, and asks the placement policy where the root thread lands.
func (vm *VM) entry(spec JobSpec) (m *classfile.Method, arrival cell.Clock, kind isa.CoreKind, err error) {
	cls := vm.Prog.Lookup(spec.Class)
	if cls == nil {
		return nil, 0, 0, fmt.Errorf("vm: no class %q", spec.Class)
	}
	if m = cls.MethodByName(spec.Method); m == nil {
		return nil, 0, 0, fmt.Errorf("vm: no method %s.%s", spec.Class, spec.Method)
	}
	if !m.IsStatic() {
		return nil, 0, 0, fmt.Errorf("vm: entry %s must be static", m.Sig())
	}
	arrival = max(spec.Arrival, vm.Machine.MaxClock())
	return m, arrival, vm.placeKind(m), nil
}

// Jobs returns the admitted jobs in admission order (a copy).
func (vm *VM) Jobs() []*Job {
	out := make([]*Job, len(vm.jobs))
	copy(out, vm.jobs)
	return out
}

// Wait drives the machine until the job completes and returns its
// Result. Other jobs progress too — the machine is shared; Wait only
// decides when the driving loop hands back. A trap in any of the job's
// threads is returned as the error, alongside the Result — a trapped
// job still completed, and its output, cycles and counters remain
// meaningful. A nil Result comes only with a machine-level failure
// (match it with errors.Is(err, ErrDeadlock)) or with ErrFrozen for a
// job frozen off this machine, which will never complete here. A shed
// job returns at once: its Result carries the verdict (Shed set, no
// value, no cycles) and a nil error.
func (j *Job) Wait() (*Result, error) {
	if err := j.vm.runWhile(func() bool { return j.done || j.frozen }); err != nil {
		return nil, err
	}
	if j.frozen {
		return nil, fmt.Errorf("vm: job %d (%s): %w", j.ID, j.Name, ErrFrozen)
	}
	res := &Result{
		Cycles:      j.Cycles(),
		Millis:      float64(j.Cycles()) / (j.vm.Cfg.Machine.EffectiveClockHz() / 1e3),
		Output:      j.Output(),
		AdmittedAt:  j.AdmittedAt,
		CompletedAt: j.CompletedAt,
		Deadline:    j.Deadline,
		DeadlineMet: j.DeadlineMet,
		Verdict:     j.Verdict,
		Shed:        j.Verdict == VerdictShed,
		JobStats:    j.Stats,
	}
	if j.root != nil {
		res.Value, res.HasValue = j.root.Result, j.root.HasResult
	}
	return res, j.Err()
}

// Drain drives the machine until every thread of every admitted job
// has terminated. Per-job traps stay on the jobs (Job.Wait and Job.Err
// report them); only machine-level failures (deadlock) are returned.
func (vm *VM) Drain() error {
	return vm.runWhile(func() bool { return vm.liveCount == 0 })
}

// RunUntil drives the machine until its clock reaches cycle c or no
// live thread remains, whichever comes first. This is the open-loop
// driver's primitive: advance simulated time to the next arrival, then
// submit, so every admission verdict is decided against the machine
// state that actually holds at that arrival — queues drained by then
// are drained, backlogs built by then are visible to the drain
// estimates. The machine steps in whole quanta, so the clock may
// overshoot c by at most one scheduling round; the overshoot is
// deterministic, preserving byte-identical replay.
func (vm *VM) RunUntil(c cell.Clock) error {
	return vm.runWhile(func() bool { return vm.Machine.MaxClock() >= c })
}

// placeKind is the kind a new thread entering m lands on: the
// machine's policy's choice, or the service kind when the machine has
// no core of that kind.
func (vm *VM) placeKind(m *classfile.Method) isa.CoreKind {
	kind := vm.policy.PlaceThread(vm, m)
	if !vm.Machine.HasKind(kind) {
		kind = vm.serviceKind()
	}
	return kind
}

// noteMigrated records a cross-kind migration of t (any cause) and
// starts the thread's re-migration cooldown at the given start time.
func (vm *VM) noteMigrated(t *Thread, at cell.Clock) {
	t.Migrations++
	t.job.Stats.Migrations++
	if cd := vm.Cfg.MigrateCooldownCycles; cd != 0 {
		t.cooldownUntil = at + cd
	}
}

// noteStolen records a same-kind steal of t.
func noteStolen(t *Thread) {
	t.Steals++
	t.job.Stats.Steals++
}

// noteCompile attributes one fresh method compilation to t's job.
func noteCompile(t *Thread) { t.job.Stats.Compiles++ }

// firstTrap returns the first trap among threads in creation order.
func firstTrap(threads []*Thread) error {
	for _, t := range threads {
		if t.Trap != nil {
			return t.Trap
		}
	}
	return nil
}
