// Job-session API: a booted System accepts many asynchronous job
// submissions — each a named entry method with optional arguments, an
// arrival cycle, an optional deadline and an optional placement-policy
// override — over one long-lived VM, the workload shape the paper's
// runtime system exists to serve. Submission is asynchronous in
// *simulated* time: Submit runs the request through the admission
// pipeline (creating the root thread of an admitted job, placed
// through the scheduler's drain-time estimate) without advancing the
// machine; Job.Wait, System.Drain and System.RunUntil drive it.
// Admission is totally ordered by (arrival cycle, submission
// sequence) — shed jobs included — and the machine's stepping is
// independent of where the driving loop pauses, so replaying the same
// submission script against the same driving schedule yields
// byte-identical results.

package core

import (
	"fmt"

	"herajvm/internal/cell"
	"herajvm/internal/vm"
)

// Verdict is the admission pipeline's decision for one submission:
// Admitted, Delayed (admitted, but predicted to queue behind backlog)
// or Shed (refused — the job will never run). See vm.Verdict.
type Verdict = vm.Verdict

// Admission verdicts, re-exported for callers of Submit.
const (
	// Admitted means the job is predicted to start promptly.
	Admitted = vm.VerdictAdmitted
	// Delayed means the job was accepted but will queue first.
	Delayed = vm.VerdictDelayed
	// Shed means the job was refused at admission and never runs.
	Shed = vm.VerdictShed
)

// ErrDeadlock is the machine-level failure Wait and Drain wrap when
// live threads remain but none is runnable; match it with errors.Is
// to distinguish a dead machine from a per-job trap.
var ErrDeadlock = vm.ErrDeadlock

// ErrBadConfig is what NewSystem wraps for a Config no machine can run
// (a zero Quantum, an EIB without channels, a data cache smaller than
// one cached unit, ...); match it with errors.Is.
var ErrBadConfig = vm.ErrBadConfig

// JobRequest describes one submission to a booted System.
type JobRequest struct {
	// Class and Method name the static entry method.
	Class  string
	Method string
	// Name optionally labels the job in reports (default Class.Method).
	Name string
	// Args are optional int arguments passed to the entry method.
	Args []int32
	// Arrival is the simulated cycle the job's root thread becomes
	// runnable, floored at the machine's current clock; 0 means "now".
	Arrival cell.Clock
	// Deadline is the job's completion deadline in cycles relative to
	// its admission (0 = none). With deadline shedding configured
	// (Config.Admission.Shed), a job the scheduler's drain estimates
	// predict to miss it is shed at admission; either way the
	// completed job's Result reports DeadlineMet honestly.
	Deadline cell.Clock
	// Policy optionally overrides the system-wide placement policy for
	// every thread of this job.
	Policy vm.Policy
}

// Job is one submitted job: a handle carrying the submission, the
// running VM-side state and, once complete, the per-job Result.
type Job struct {
	sys   *System
	inner *vm.Job
	req   JobRequest
	res   *Result
	err   error
}

// Submit runs a job request through the admission pipeline of the
// booted VM and returns the job handle plus the admission verdict.
// An admitted (or delayed) job does not execute until the machine is
// driven (Job.Wait, System.Drain or System.RunUntil); submissions made
// before driving share the machine and are scheduled against each
// other, which is the point of the session. A shed job never runs:
// its Wait returns immediately with a Result whose Shed flag is set.
// The error return is for malformed requests only — shedding is a
// verdict, not an error.
func (s *System) Submit(req JobRequest) (*Job, Verdict, error) {
	args := make([]uint64, len(req.Args))
	for i, v := range req.Args {
		args[i] = uint64(uint32(v))
	}
	inner, err := s.VM.SubmitJob(vm.JobSpec{
		Name:     req.Name,
		Class:    req.Class,
		Method:   req.Method,
		Args:     args,
		Arrival:  req.Arrival,
		Deadline: req.Deadline,
		Policy:   req.Policy,
	})
	if err != nil {
		return nil, Shed, err
	}
	j := &Job{sys: s, inner: inner, req: req}
	s.jobs = append(s.jobs, j)
	return j, inner.Verdict, nil
}

// Probe evaluates the admission pipeline's completion probe for a
// request without admitting anything: the predicted completion cycle
// of a job arriving at req.Arrival (floored at the machine clock),
// from the scheduler's drain estimates and the session's observed
// per-job service EWMA, plus whether the bounded pending queue has
// room for it. A cluster dispatcher probes every shard this way at an
// epoch barrier and routes the request to the lowest predicted
// completion. Probing is side-effect free.
func (s *System) Probe(req JobRequest) (completion cell.Clock, room bool, err error) {
	return s.VM.ProbeJob(vm.JobSpec{
		Class:   req.Class,
		Method:  req.Method,
		Arrival: req.Arrival,
		Policy:  req.Policy,
	})
}

// PendingJobs reports the admission queue depth: jobs admitted but not
// yet completed.
func (s *System) PendingJobs() int { return s.VM.PendingJobs() }

// LiveThreads reports the number of live threads on the machine — zero
// means the session is idle and driving it is a no-op.
func (s *System) LiveThreads() int { return s.VM.LiveThreads() }

// Jobs returns the session's submitted jobs in admission order.
func (s *System) Jobs() []*Job {
	out := make([]*Job, len(s.jobs))
	copy(out, s.jobs)
	return out
}

// Drain drives the machine until every submitted job has completed.
// Per-job traps stay on the jobs (Job.Wait and Job.Err report them);
// Drain returns only machine-level failures (ErrDeadlock).
func (s *System) Drain() error { return s.VM.DrainJobs() }

// RunUntil drives the machine until its clock reaches the given cycle
// or no runnable work remains — the open-loop serving primitive:
// advance to the next arrival, then Submit, so each admission verdict
// is decided against the machine state holding at that arrival. It
// returns only machine-level failures (ErrDeadlock).
func (s *System) RunUntil(c cell.Clock) error { return s.VM.RunUntil(c) }

// ID returns the job's admission sequence number.
func (j *Job) ID() int { return j.inner.ID }

// Name returns the job's report label.
func (j *Job) Name() string { return j.inner.Name }

// Request returns the submission that created the job.
func (j *Job) Request() JobRequest { return j.req }

// Verdict returns the admission pipeline's decision for the job.
func (j *Job) Verdict() Verdict { return j.inner.Verdict }

// Done reports whether the job has completed (without driving it).
// Shed jobs are done at admission.
func (j *Job) Done() bool { return j.inner.Done() }

// Err returns the job's first thread trap in creation order, or nil —
// without driving the machine. Use it to inspect a completed job's
// fate when Wait's combined (Result, error) return is awkward; a
// machine-level deadlock is NOT reported here (that is Wait's
// ErrDeadlock), so Err == nil on a done job means it ran to
// completion cleanly.
func (j *Job) Err() error { return j.inner.Err() }

// Wait drives the machine until the job completes and returns its
// Result. Other submitted jobs progress too — the machine is shared;
// Wait only decides when the driving loop hands back. A trap in any of
// the job's threads is returned as the error, alongside the Result —
// a trapped job still completed, and its output, cycles and counters
// remain meaningful. Only a machine-level failure returns a nil
// Result; match that error with errors.Is(err, ErrDeadlock). A shed
// job returns immediately: its Result carries the verdict (Shed set,
// no value, no cycles) and a nil error.
func (j *Job) Wait() (*Result, error) {
	if j.res != nil {
		return j.res, j.err
	}
	j.err = j.sys.VM.WaitJob(j.inner)
	if !j.inner.Done() {
		return nil, j.err // deadlocked machine: the job never finished
	}
	in := j.inner
	j.res = &Result{
		Cycles:      in.Cycles(),
		Millis:      float64(in.Cycles()) / (j.sys.VM.Cfg.Machine.EffectiveClockHz() / 1e3),
		Output:      in.Output(),
		AdmittedAt:  in.AdmittedAt,
		CompletedAt: in.CompletedAt,
		Deadline:    in.Deadline,
		DeadlineMet: in.DeadlineMet,
		Verdict:     in.Verdict,
		Shed:        in.Verdict == Shed,
		JobStats:    in.Stats,
	}
	if root := in.Root(); root != nil {
		j.res.Value = root.Result
		j.res.HasValue = root.HasResult
	}
	return j.res, j.err
}

// describe renders one job line for the machine report.
func (j *Job) describe() string {
	in := j.inner
	switch {
	case in.Verdict == Shed:
		return fmt.Sprintf("  job %-2d %-28s admitted=%-10d shed", in.ID, in.Name, in.AdmittedAt)
	case !in.Done():
		return fmt.Sprintf("  job %-2d %-28s admitted=%-10d running", in.ID, in.Name, in.AdmittedAt)
	}
	line := fmt.Sprintf("  job %-2d %-28s admitted=%-10d cycles=%-10d mig=%d steals=%d compiles=%d",
		in.ID, in.Name, in.AdmittedAt, in.Cycles(),
		in.Stats.Migrations, in.Stats.Steals, in.Stats.Compiles)
	if in.Stats.GCPauses > 0 {
		line += fmt.Sprintf(" gc=%d/%dcyc", in.Stats.GCPauses, in.Stats.GCCycles)
	}
	if in.Deadline != 0 {
		line += fmt.Sprintf(" deadline=%d met=%v", in.Deadline, in.DeadlineMet)
	}
	return line
}
