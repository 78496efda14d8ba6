package cluster

import (
	"fmt"

	"herajvm/internal/cell"
	"herajvm/internal/vm"
)

// The dispatcher. Routing reuses the admission pipeline's completion
// probe per shard: predicted start (the shard's worst-pool best-core
// drain estimate, floored at the arrival) plus the shard's observed
// per-job service EWMA scaled by its pending depth. The job goes to
// the shard predicting the earliest completion — effectively
// join-shortest-predicted-queue — with ties broken by lowest shard ID,
// so routing is a pure function of barrier-synchronized shard state
// and replays exactly. A shard whose bounded pending queue is full is
// ineligible; shedding happens only when no shard is eligible, or
// (with Config.Shed) when even the best eligible shard predicts a
// deadline miss. The dispatcher is deliberately built as
// probe-then-commit so a later inter-shard hand-off can re-enter it:
// a shard rejecting a job mid-flight just becomes a new request
// probed against the remaining shards.

// Submit routes one request through the cluster: advance every shard
// to the request's arrival (epoch barriers included), probe each
// shard's predicted completion, and submit to the best eligible shard
// — or shed when there is none. Requests must be submitted in
// non-decreasing arrival order (the dispatcher is the open-loop
// driver); an arrival earlier than the cluster horizon is floored to
// it. The error return is for malformed requests and machine-level
// failures; shedding is a verdict.
func (c *Cluster) Submit(req vm.JobSpec) (*Job, vm.Verdict, error) {
	arrival := req.Arrival
	if arrival < c.horizon {
		arrival = c.horizon
	}
	if err := c.AdvanceTo(arrival); err != nil {
		return nil, vm.VerdictShed, err
	}
	req.Arrival = arrival

	best := -1
	var bestCompletion cell.Clock
	for _, s := range c.shards {
		completion, room, err := s.Sys.Probe(req)
		if err != nil {
			return nil, vm.VerdictShed, fmt.Errorf("cluster: probing shard %d: %w", s.ID, err)
		}
		if !room {
			continue
		}
		if best < 0 || completion < bestCompletion {
			best, bestCompletion = s.ID, completion
		}
	}

	var deadline cell.Clock
	if req.Deadline != 0 {
		deadline = arrival + req.Deadline
	}
	j := &Job{Seq: len(c.jobs), Shard: -1, Verdict: vm.VerdictShed,
		Arrival: arrival, Deadline: deadline, Req: req}
	if best < 0 || (c.cfg.Shed && deadline != 0 && bestCompletion > deadline) {
		// Every shard is full, or every shard's probe misses the
		// deadline: shed at dispatch. The job keeps its sequence slot so
		// the merged result stream replays identically.
		c.jobs = append(c.jobs, j)
		return j, vm.VerdictShed, nil
	}

	shard := c.shards[best]
	inner, verdict, err := shard.Sys.Submit(req)
	if err != nil {
		return nil, vm.VerdictShed, fmt.Errorf("cluster: shard %d: %w", best, err)
	}
	shard.Routed++
	j.Shard, j.Verdict, j.Inner = best, verdict, inner
	c.jobs = append(c.jobs, j)
	return j, verdict, nil
}
