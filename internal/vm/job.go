package vm

import (
	"bytes"
	"fmt"
	"io"

	"herajvm/internal/cell"
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
	// at an SPMD barrier). A job with kernels > 0 refuses FreezeJob: the
	// barrier state — pinned workers mid-chunk, a caller blocked in a
	// native — is not serializable between instructions.
	kernels int
	// frozen marks a job serialized off this machine by FreezeJob: it
	// will never complete here (done stays false), and WaitJob returns
	// ErrFrozen for it. freezeBarrier asks the executor to park the
	// job's threads before their next instruction (the quiesce step
	// of a freeze); parked collects the threads so parked.
	frozen        bool
	freezeBarrier bool
	parked        []*Thread
	out           bytes.Buffer
	// w tees the VM-wide output stream and the job's capture buffer
	// (built once at admission; print natives are a hot path).
	w      io.Writer
	policy Policy
}

// Done reports whether every thread of the job has terminated.
func (j *Job) Done() bool { return j.done }

// Frozen reports whether the job was serialized off this machine by
// FreezeJob. A frozen job never completes here; its continuation lives
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

// SubmitJob runs a submission through the admission pipeline: resolve
// the static entry method, floor the arrival at the machine's current
// clock, and decide a verdict from the scheduler's drain estimates
// under Config.Admission. An admitted (or delayed) job gets a fresh
// root thread runnable at its arrival; a shed job is recorded —
// occupying its slot in the total (arrival cycle, submission sequence)
// admission order — but never runs, so replaying the same submission
// script against the same driving schedule reproduces the same
// verdicts and the same machine byte for byte. The job does not
// execute until the machine is driven (WaitJob, DrainJobs, RunUntil,
// or any Run variant).
//
// The error return is for malformed submissions (unknown class or
// method, bad arguments); shedding is not an error — it is the
// admission pipeline doing its job, reported through Job.Verdict.
func (vm *VM) SubmitJob(spec JobSpec) (*Job, error) {
	cls := vm.Prog.Lookup(spec.Class)
	if cls == nil {
		return nil, fmt.Errorf("vm: no class %q", spec.Class)
	}
	m := cls.MethodByName(spec.Method)
	if m == nil {
		return nil, fmt.Errorf("vm: no method %s.%s", spec.Class, spec.Method)
	}
	if !m.IsStatic() {
		return nil, fmt.Errorf("vm: entry %s must be static", m.Sig())
	}
	arrival := spec.Arrival
	if now := vm.Machine.MaxClock(); arrival < now {
		arrival = now
	}
	name := spec.Name
	if name == "" {
		name = spec.Class + "." + spec.Method
	}
	var deadline cell.Clock
	if spec.Deadline != 0 {
		deadline = arrival + spec.Deadline
	}

	j := &Job{ID: len(vm.jobs), Name: name, AdmittedAt: arrival,
		Deadline: deadline, policy: spec.Policy}
	kind := vm.policyOf(j).PlaceThread(vm, m)
	if !vm.Machine.HasKind(kind) {
		kind = vm.serviceKind()
	}
	j.Verdict = vm.admissionVerdict(kind, arrival, deadline)
	if j.Verdict == VerdictShed {
		// Shed at admission: the job is complete without ever running.
		// It holds its place in the admission order so interleaved shed
		// decisions cannot perturb the (arrival, sequence) total order
		// of the jobs that did get in.
		j.done = true
		j.CompletedAt = arrival
		vm.jobs = append(vm.jobs, j)
		return j, nil
	}
	j.w = io.MultiWriter(vm.stdout, &j.out)
	prevJob := vm.curJob
	vm.curJob = j
	root, err := vm.startThread(j, name, m, arrival, spec.Args)
	vm.curJob = prevJob
	if err != nil {
		return nil, err
	}
	j.root = root
	vm.pending++
	vm.jobs = append(vm.jobs, j)
	return j, nil
}

// Jobs returns the admitted jobs in admission order (a copy).
func (vm *VM) Jobs() []*Job {
	out := make([]*Job, len(vm.jobs))
	copy(out, vm.jobs)
	return out
}

// WaitJob drives the machine until the job completes (other jobs'
// threads progress too — the machine is shared). It returns a
// machine-level error (deadlock), ErrFrozen for a job that was frozen
// off this machine (it will never complete here), or the job's first
// thread trap.
func (vm *VM) WaitJob(j *Job) error {
	if err := vm.runWhile(func() bool { return j.done || j.frozen }); err != nil {
		return err
	}
	if j.frozen {
		return fmt.Errorf("vm: job %d (%s): %w", j.ID, j.Name, ErrFrozen)
	}
	return j.Err()
}

// DrainJobs drives the machine until every thread of every admitted
// job has terminated. Per-job traps stay on the jobs (Job.Err); only
// machine-level failures (deadlock) are returned.
func (vm *VM) DrainJobs() error {
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

// policyOf returns the placement policy governing a job's threads: the
// override it was submitted with, the VM-wide policy otherwise.
func (vm *VM) policyOf(j *Job) Policy {
	if j.policy != nil {
		return j.policy
	}
	return vm.policy
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
