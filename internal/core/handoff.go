// Job hand-off: freezing a running job off one System and rehydrating
// it on another. The thin wrappers below expose the VM's snapshot
// subsystem (internal/vm/snapshot.go) at the session layer, keeping the
// Job handle bookkeeping consistent; the cluster dispatcher drives them
// at epoch barriers (internal/cluster).
package core

import (
	"context"

	"herajvm/internal/cell"
	"herajvm/internal/vm"
)

// ErrFrozen is returned by Wait (and surfaced through cluster results)
// for a job frozen off its machine: it will never complete there.
// Match with errors.Is.
var ErrFrozen = vm.ErrFrozen

// ErrJobDone is Freeze's report that the job completed before reaching
// its safe point — nothing to hand off, nothing wrong.
var ErrJobDone = vm.ErrJobDone

// ErrNotFreezable is Freeze's report that the job is entangled with
// state outside itself and must stay where it is. Match with errors.Is.
var ErrNotFreezable = vm.ErrNotFreezable

// Freeze drives the machine until the job reaches a safe point — every
// thread parked between instructions — then serializes and detaches
// it, returning the portable image. The job's handle stays in the
// session's list; its Wait returns ErrFrozen. ctx cancellation aborts
// the freeze cleanly (the job keeps running here). See vm.FreezeJob
// for the full contract.
func (s *System) Freeze(ctx context.Context, j *Job) (*vm.JobImage, error) {
	return s.VM.FreezeJob(ctx, j.inner)
}

// Rehydrate admits a frozen job image on this System, resuming its
// thread tree at the given arrival. req is the original submission the
// revived handle carries (for reports and any further routing); the
// job's admission cycle, deadline, verdict, accounting and captured
// output come from the image, so end-to-end latency spans the hand-off.
func (s *System) Rehydrate(img *vm.JobImage, arrival cell.Clock, req JobRequest) (*Job, error) {
	inner, err := s.VM.RehydrateJob(img, arrival)
	if err != nil {
		return nil, err
	}
	j := &Job{sys: s, inner: inner, req: req}
	s.jobs = append(s.jobs, j)
	return j, nil
}
