package cluster

import (
	"errors"
	"fmt"

	"herajvm/internal/cell"
	"herajvm/internal/vm"
)

// Inter-shard job hand-off. At each epoch barrier — every shard parked
// at the boundary, so the decision reads pinned state exactly like the
// dispatcher — the cluster re-probes its in-flight deadline jobs with a
// capacity-aware completion estimate and moves the worst predicted
// deadline-misser to a shard predicted to rescue it: the job's thread
// tree is frozen at a safe point (every thread between instructions,
// vm.Freeze), carried across as a portable JobImage, and rehydrated
// on the target. The whole mechanism is a pure function of
// barrier-synchronized shard state, so replay remains byte-identical,
// serial or parallel, at any GOMAXPROCS.
//
// The re-probe deliberately does NOT reuse the admission probe. That
// probe is capacity-blind (service EWMA times queue depth, regardless
// of how many cores drain the queue) — adequate for tie-breaking
// near-identical shards at admission, but on an imbalanced fleet it
// routes bursts onto weak shards and, mid-flight, predicts the wrong
// hand-off direction. Instead the estimate here is
//
//	completion ≈ horizon + service × (pending+1) / workers
//
// with service the fastest completed-job latency observed anywhere in
// the cluster — a measured, deterministic proxy for one job's
// uncontended service time. Until a first job completes there is no
// measurement, and the pass refuses to move anything: hand-off waits
// for data rather than thrashing on cold-start guesses.
//
// At most one job moves per barrier (the freeze itself advances the
// source shard's clock, invalidating the other estimates taken at this
// boundary) and each job moves at most MaxHandoffs times, so a job
// that keeps slipping everywhere settles instead of thrashing.

// DefaultMaxHandoffs bounds how many times one job may be handed off.
const DefaultMaxHandoffs = 3

// rebalance runs the hand-off pass at an epoch boundary. Jobs that
// finish before reaching a safe point (ErrJobDone) or are entangled
// with non-job state (ErrNotFreezable) are skipped silently — both are
// verdicts about the job, not failures of the cluster.
func (c *Cluster) rebalance(boundary cell.Clock) error {
	maxH := c.cfg.MaxHandoffs
	if maxH <= 0 {
		maxH = DefaultMaxHandoffs
	}
	service, ok := c.serviceFloor()
	if !ok {
		return nil // no completed job yet: no measured basis to move anything
	}

	// Worst offender: the in-flight deadline job with the largest
	// predicted slip past its deadline on its current shard.
	var victim *Job
	var victimSlip cell.Clock
	for _, j := range c.jobs {
		if j.Inner == nil || j.Inner.Done() || j.Deadline == 0 || j.Handoffs >= maxH {
			continue
		}
		completion := c.estimate(c.shards[j.Shard], service, 0)
		if completion <= j.Deadline {
			continue
		}
		slip := completion - j.Deadline
		if victim == nil || slip > victimSlip {
			victim, victimSlip = j, slip
		}
	}
	if victim == nil {
		return nil
	}

	// Rescuing target: the shard with room predicting the earliest
	// completion for one more job — strictly earlier than staying put,
	// and early enough to actually meet the deadline. A slipping job no
	// shard can rescue stays where it is: moving it pays the freeze,
	// the transfer and a recompile without buying anything.
	src := c.shards[victim.Shard]
	best := -1
	bestCompletion := c.estimate(src, service, 0)
	for _, s := range c.shards {
		if s.ID == victim.Shard || !c.room(s) {
			continue
		}
		completion := c.estimate(s, service, 1)
		if completion >= bestCompletion || completion > victim.Deadline {
			continue
		}
		best, bestCompletion = s.ID, completion
	}
	if best < 0 {
		return nil
	}

	img, err := src.Sys.Freeze(c.cfg.Ctx, victim.Inner)
	switch {
	case errors.Is(err, vm.ErrJobDone), errors.Is(err, vm.ErrNotFreezable):
		return nil
	case err != nil:
		return fmt.Errorf("cluster: freezing job %d on shard %d: %w", victim.Seq, victim.Shard, err)
	}

	dst := c.shards[best]
	inner, err := dst.Sys.Rehydrate(img, boundary, victim.Req)
	if err != nil {
		// The shards run the same program, so a rejected image is a bug,
		// not an operational condition — and the job is gone from both
		// shards. Fail the run loudly.
		return fmt.Errorf("cluster: rehydrating job %d on shard %d: %w", victim.Seq, best, err)
	}
	src.HandoffsOut++
	dst.HandoffsIn++
	victim.Inner = inner
	victim.Shard = best
	victim.Handoffs++
	return nil
}

// serviceFloor returns the fastest completed-job latency observed in
// the cluster so far — the measured uncontended-service proxy the
// hand-off estimates scale by — and whether any job has completed. A
// job its shard shed is done without having run, so it measures
// nothing.
func (c *Cluster) serviceFloor() (cell.Clock, bool) {
	var floor cell.Clock
	found := false
	for _, j := range c.jobs {
		if j.Inner == nil || !j.Inner.Done() || j.Inner.Verdict == vm.VerdictShed {
			continue
		}
		if lat := j.Inner.Cycles(); !found || lat < floor {
			floor, found = lat, true
		}
	}
	return floor, found
}

// estimate predicts the completion cycle of one of a shard's jobs (or,
// with extra=1, of one more job landing on it): the cluster horizon
// plus the measured service floor scaled by queue depth per
// workload-hosting core.
func (c *Cluster) estimate(s *Shard, service cell.Clock, extra int) cell.Clock {
	workers := s.Sys.VM.Cfg.Machine.Topology.DefaultWorkers()
	if workers < 1 {
		workers = 1
	}
	depth := cell.Clock(s.Sys.PendingJobs() + extra)
	return c.horizon + service*depth/cell.Clock(workers)
}

// room reports whether the shard's bounded pending queue can take one
// more job (always true with no bound configured).
func (c *Cluster) room(s *Shard) bool {
	max := s.Sys.VM.Cfg.Admission.MaxPending
	return max <= 0 || s.Sys.PendingJobs() < max
}
