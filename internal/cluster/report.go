package cluster

import (
	"fmt"
	"sort"
	"strings"

	"herajvm/internal/vm"
)

// Result is one entry of the merged cluster result stream.
type Result struct {
	// Seq and Shard identify the job (Shard -1 = dispatcher-shed).
	Seq   int
	Shard int
	// Name is the job's report label.
	Name string
	// Res is the per-job result: the shard's completed Result, or a
	// synthesized shed Result for dispatcher-shed jobs (Shed set, no
	// cycles, no value).
	Res *vm.Result
	// Handoffs counts how many times the job moved shards mid-flight.
	Handoffs int
	// Err is the job's first thread trap, nil for clean and shed jobs.
	Err error
}

// Results returns the merged result stream in (arrival, shard,
// sequence) order — the cluster's determinism contract: the same
// submission script against the same shard fleet yields the same
// stream byte for byte, however the shards were advanced. The cluster
// must be drained first; a still-running job is a machine-level error.
func (c *Cluster) Results() ([]Result, error) {
	ordered := make([]*Job, len(c.jobs))
	copy(ordered, c.jobs)
	sort.SliceStable(ordered, func(a, b int) bool {
		ja, jb := ordered[a], ordered[b]
		if ja.Arrival != jb.Arrival {
			return ja.Arrival < jb.Arrival
		}
		if ja.Shard != jb.Shard {
			return ja.Shard < jb.Shard
		}
		return ja.Seq < jb.Seq
	})
	out := make([]Result, 0, len(ordered))
	for _, j := range ordered {
		r := Result{Seq: j.Seq, Shard: j.Shard, Name: c.nameOf(j), Handoffs: j.Handoffs}
		if j.Inner == nil {
			r.Res = &vm.Result{
				AdmittedAt:  j.Arrival,
				CompletedAt: j.Arrival,
				Deadline:    j.Deadline,
				Verdict:     vm.VerdictShed,
				Shed:        true,
			}
		} else {
			res, err := j.Inner.Wait()
			if res == nil {
				return nil, fmt.Errorf("cluster: job %d on shard %d: %w", j.Seq, j.Shard, err)
			}
			r.Res, r.Err = res, err
		}
		out = append(out, r)
	}
	return out, nil
}

// nameOf renders a job's report label.
func (c *Cluster) nameOf(j *Job) string {
	if j.Req.Name != "" {
		return j.Req.Name
	}
	return j.Req.Class + "." + j.Req.Method
}

// Utilization returns a shard's core utilization: busy cycles over
// busy+idle, aggregated across its cores (0 for an unused shard).
func (s *Shard) Utilization() float64 {
	var busy, idle uint64
	for _, core := range s.Sys.VM.Machine.Cores() {
		busy += core.Stats.Busy()
		idle += core.Stats.Idle
	}
	if busy+idle == 0 {
		return 0
	}
	return float64(busy) / float64(busy+idle)
}

// JobsTable renders the merged result stream as text. It contains only
// simulated quantities, so it must be byte-identical across replays,
// GOMAXPROCS settings, serial vs parallel advancement AND epoch
// strides (barrier placement may not perturb the simulation) — the
// fidelity column of the cluster figure's stride table diffs exactly
// this.
func (c *Cluster) JobsTable() (string, error) {
	results, err := c.Results()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%4s %5s %-16s %12s %-9s %12s %5s %5s %7s %4s\n",
		"seq", "shard", "job", "arrival", "verdict", "latency", "met", "mig", "steals", "hand")
	for _, r := range results {
		shard := fmt.Sprintf("%d", r.Shard)
		if r.Shard < 0 {
			shard = "-"
		}
		fmt.Fprintf(&b, "%4d %5s %-16s %12d %-9s %12d %5v %5d %7d %4d\n",
			r.Seq, shard, r.Name, r.Res.AdmittedAt, r.Res.Verdict,
			r.Res.Cycles, r.Res.DeadlineMet, r.Res.Migrations, r.Res.Steals, r.Handoffs)
	}
	return b.String(), nil
}

// Report renders the deterministic cluster report: the fleet line,
// one line per shard (shape, clock, routing and utilization) and the
// merged job table. Like JobsTable it carries no host quantities, so
// double-replay must reproduce it byte for byte.
func (c *Cluster) Report() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d shards, stride %d, %d barriers, horizon %d\n",
		len(c.shards), c.cfg.EpochStride, c.barriers, c.horizon)
	for _, s := range c.shards {
		m := s.Sys.VM.Machine
		fmt.Fprintf(&b, "shard %d: %s clock=%-12d jobs=%-3d pending=%-3d hand=+%d/-%d util=%.3f\n",
			s.ID, m.Describe(), m.MaxClock(),
			s.Routed, s.Sys.PendingJobs(), s.HandoffsIn, s.HandoffsOut, s.Utilization())
	}
	jobs, err := c.JobsTable()
	if err != nil {
		return "", err
	}
	b.WriteString(jobs)
	return b.String(), nil
}
