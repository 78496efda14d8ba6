package vm

import (
	"errors"

	"herajvm/internal/cell"
	"herajvm/internal/isa"
	"herajvm/internal/sched"
)

// ErrDeadlock is the machine-level failure the driving loop reports
// when live threads remain but none is runnable. It is wrapped (not
// returned bare) so callers distinguish a dead machine from a per-job
// trap with errors.Is — a trapped job still completed and carries a
// Result; a deadlocked machine completes nothing.
var ErrDeadlock = errors.New("deadlock: live threads but none runnable")

// Verdict is the admission pipeline's decision for one submitted job.
type Verdict uint8

const (
	// VerdictAdmitted means the job was accepted and is predicted to
	// start promptly: the best core of its root thread's kind has no
	// backlog past the job's arrival.
	VerdictAdmitted Verdict = iota
	// VerdictDelayed means the job was accepted but will queue: the
	// scheduler's drain estimate for its root's pool already exceeds
	// the arrival cycle. Delayed jobs run exactly like admitted ones;
	// the verdict exists so an open-loop caller can see queueing build
	// before deadlines start being missed.
	VerdictDelayed
	// VerdictShed means the job was refused at admission — the bounded
	// queue was full, or the drain-predicted completion exceeded the
	// job's deadline — and will never run. A shed job still occupies
	// its slot in the (arrival, sequence) admission order and returns a
	// Result with Shed set, so replaying a submission script reproduces
	// the same verdicts in the same order.
	VerdictShed
)

var verdictNames = [...]string{"admitted", "delayed", "shed"}

// String returns the verdict name.
func (v Verdict) String() string { return verdictNames[v] }

// AdmissionConfig tunes the admission pipeline that decides each
// Submit's verdict. The zero value admits everything — the closed
// submission contract every pre-admission caller relied on.
type AdmissionConfig struct {
	// MaxPending bounds the admission queue: the number of jobs
	// admitted but not yet completed. A submission arriving with
	// MaxPending jobs still in flight is shed regardless of its
	// deadline — the queue-depth backstop that keeps a burst from
	// swamping the deadline math itself. 0 means unbounded.
	MaxPending int

	// Shed enables deadline-based load shedding: a job whose
	// drain-predicted completion exceeds its absolute deadline is
	// refused at admission instead of admitted to miss it. Jobs
	// without a deadline are never deadline-shed. False admits
	// deadline-carrying jobs unconditionally (their DeadlineMet still
	// reports honestly).
	Shed bool
}

// JobSpec describes one submission to a booted VM.
type JobSpec struct {
	// Name labels the job in reports (default Class.Method).
	Name string
	// Class and Method name the static entry method.
	Class  string
	Method string
	// Args are the entry method's arguments, at the kinds its signature
	// declares.
	Args []uint64
	// Arrival is the cycle the job's root thread becomes runnable,
	// floored at the machine's current clock.
	Arrival cell.Clock
	// Deadline is the job's completion deadline in cycles relative to
	// its admission (0 = none): the job should complete by
	// AdmittedAt + Deadline. The deadline feeds the admission verdict
	// (when Config.Admission.Shed is set) and the completed job's
	// DeadlineMet flag.
	Deadline cell.Clock
}

// PendingJobs reports the admission queue depth: jobs admitted but not
// yet completed. It is part of the probe surface a cluster dispatcher
// reads between epoch barriers.
func (vm *VM) PendingJobs() int { return vm.pending }

// LiveThreads reports the number of live (unterminated) threads on the
// machine — zero means driving the VM is a no-op. A cluster drain loop
// polls it to know when a shard has gone idle.
func (vm *VM) LiveThreads() int { return vm.liveCount }

// predictCompletion is the admission probe shared by the per-VM
// verdict and the cluster dispatcher: the cycle a job arriving at
// arrival (already floored at the machine clock) is predicted to
// complete, given that its root thread lands on kind.
//
// The job is predicted to start no earlier than the worst pool's best
// drain across every kind the machine has (a job's threads must
// ultimately drain through the machine's most backed-up pool — the
// serve workloads park their mains in join while annotated workers
// saturate the accelerators, so the root's own pool is routinely idle
// while the machine is overloaded) and then to take the observed
// per-job service time for itself plus each job already in flight
// ahead of it. The service term is the VM's completion EWMA — before
// any job has completed it degrades to one predicted scheduling round,
// so a cold machine admits optimistically and the estimator sharpens
// as the session serves. rootDrain is the drain estimate of the best
// core of the root's own pool — the queueing signal the Delayed
// verdict reads.
func (vm *VM) predictCompletion(kind isa.CoreKind, arrival cell.Clock) (completion, rootDrain cell.Clock) {
	_, rootDrain = sched.BestCore(vm.scheduler, vm.kindCores[kind])
	congestion := rootDrain
	var round uint64
	for _, k := range vm.presentKinds {
		pool := vm.kindCores[k]
		pos, drain := sched.BestCore(vm.scheduler, pool)
		if drain > congestion {
			congestion = drain
			round = vm.taskCost(nil, pool[pos])
		}
	}
	start := congestion
	if arrival > start {
		start = arrival
	}
	service := vm.jobServiceEWMA * uint64(vm.pending+1)
	if service == 0 {
		// Cold start: no completion observed yet; one scheduling
		// round is the only prediction the scheduler can back.
		service = round
		if service == 0 {
			service = vm.taskCost(nil, vm.kindCores[kind][0])
		}
	}
	return start + service, rootDrain
}

// Probe evaluates the admission probe for a hypothetical submission
// without admitting anything: it runs Submit's entry checks, asks the
// placement policy where the root thread would land, and returns the
// drain-estimate + service-EWMA predicted completion cycle plus whether
// the bounded pending queue has room (always true when MaxPending is
// 0). A cluster dispatcher calls this on every shard at an epoch
// barrier and routes the job to the lowest predicted completion; the
// probe reads only scheduler state, so probing is side-effect free and
// any number of probes replay identically. A spec Submit would refuse
// is an error here too.
func (vm *VM) Probe(spec JobSpec) (completion cell.Clock, room bool, err error) {
	_, arrival, kind, err := vm.entry(spec)
	if err != nil {
		return 0, false, err
	}
	adm := vm.Cfg.Admission
	room = adm.MaxPending == 0 || vm.pending < adm.MaxPending
	completion, _ = vm.predictCompletion(kind, arrival)
	return completion, room, nil
}

// admissionVerdict decides a submission's fate from the scheduler's
// drain estimates. kind is where the placement policy would put the
// job's root thread; arrival is already floored at the machine clock;
// deadline is absolute (0 = none).
//
// The probe asks two questions. Start: the root pool's best drain —
// later than the arrival means the job queues (VerdictDelayed).
// Completion: predictCompletion's drain + service-EWMA estimate. When
// shedding is enabled and predicted completion exceeds the deadline,
// the job is refused.
func (vm *VM) admissionVerdict(kind isa.CoreKind, arrival, deadline cell.Clock) Verdict {
	adm := vm.Cfg.Admission
	if adm.MaxPending > 0 && vm.pending >= adm.MaxPending {
		return VerdictShed
	}
	completion, rootDrain := vm.predictCompletion(kind, arrival)
	if adm.Shed && deadline != 0 && completion > deadline {
		return VerdictShed
	}
	if rootDrain > arrival {
		return VerdictDelayed
	}
	return VerdictAdmitted
}
