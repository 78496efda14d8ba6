// Package cluster scales serving across host cores: a Cluster boots N
// independent System shards — each a whole simulated machine with its
// own topology, scheduler and admission config — and advances them on
// their own goroutines behind a drain-routed dispatcher. Every
// incoming job is probed against every shard at an epoch barrier (the
// admission pipeline's drain-estimate + service-EWMA completion
// probe, reused per shard) and routed to the shard predicting the
// earliest completion; with cluster-level shedding enabled, a job is
// refused only when every shard's probe predicts a deadline miss.
//
// Determinism is preserved by a conservative epoch barrier: shards
// advance independently — in parallel — only up to the next cluster
// epoch boundary (an admission arrival, or the configured epoch
// stride during drain), then synchronize. Because shards share no
// simulated state and each shard's own stepping is deterministic, the
// merged (arrival, shard, sequence)-ordered result stream is
// byte-identical across replays regardless of GOMAXPROCS or of
// whether the shards were advanced serially or in parallel; the
// barrier's job is to pin the machine state every dispatcher decision
// reads, and to bound shard skew so a future inter-shard job hand-off
// (a shard rejecting and forwarding a serialized thread tree) can
// slot in without changing the contract.
package cluster

import (
	"context"
	"fmt"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/vm"
)

// DefaultEpochStride is the drain-phase barrier interval in simulated
// cycles: 500 scheduling quanta at the default 4000-cycle quantum —
// coarse enough that barrier overhead is noise against the work in an
// epoch, fine enough that shard clocks never drift more than ~0.06 ms
// of simulated time apart. The cluster figure's stride-sensitivity
// table (herabench -fig cluster) is the measured record of this
// trade-off.
const DefaultEpochStride cell.Clock = 2_000_000

// ShardConfig describes one shard of a cluster: its VM configuration
// (topology, scheduler, admission bounds — shards may differ) and a
// builder for its program. Each shard builds its own program copy so
// no compiled state, statics or heap is ever shared across shards —
// that isolation is what lets them advance on separate goroutines.
type ShardConfig struct {
	// Cfg is the shard's full VM configuration.
	Cfg vm.Config
	// Build constructs the shard's program. It is called once, on the
	// booting goroutine; every class a routed job may name must be in
	// the returned program.
	Build func() (*classfile.Program, error)
}

// Config tunes the cluster.
type Config struct {
	// EpochStride is the maximum number of cycles any shard advances
	// past the last barrier before the cluster resynchronizes (0 =
	// DefaultEpochStride). Arrivals always force a barrier; the stride
	// governs the drain phase between and after arrivals.
	EpochStride cell.Clock
	// Serial advances the shards one at a time on the calling
	// goroutine instead of in parallel — the measurement baseline the
	// cluster figure's wall-clock speedup is quoted against. Simulated
	// results are identical either way.
	Serial bool
	// Shed enables cluster-level deadline shedding: a deadline-carrying
	// job is refused at dispatch when every shard's completion probe
	// predicts a miss (or no shard has pending-queue room). Without it
	// the dispatcher always routes to the best shard and the job runs
	// to whatever fate its deadline meets.
	Shed bool
	// Handoff enables inter-shard job hand-off: at each epoch barrier
	// the cluster re-probes in-flight deadline jobs and moves the worst
	// predicted deadline-misser to a strictly better shard by freezing
	// its thread tree at a safe point and rehydrating it there (see
	// handoff.go). Off by default; replay determinism holds either way.
	Handoff bool
	// Ctx, when non-nil, guards every epoch barrier: if it is
	// cancelled, the next barrier returns its error instead of waiting
	// on shard goroutines — a wedged shard fails the run instead of
	// hanging it. It also aborts an in-progress freeze during hand-off,
	// leaving that job running on its source shard. nil means no guard.
	Ctx context.Context
}

// Shard is one booted member of the cluster.
type Shard struct {
	// ID is the shard's index in boot order — the routing tie-breaker.
	ID int
	// Sys is the shard's booted system.
	Sys *vm.System
	// Routed counts the jobs the dispatcher sent to this shard.
	Routed int
	// HandoffsOut and HandoffsIn count jobs frozen off this shard and
	// rehydrated onto it by the hand-off pass.
	HandoffsOut int
	HandoffsIn  int
}

// Job is one job submitted through the cluster dispatcher.
type Job struct {
	// Seq is the cluster-wide submission sequence number.
	Seq int
	// Shard is the shard the job currently lives on (after any
	// hand-offs), or -1 when the dispatcher shed it.
	Shard int
	// Handoffs counts how many times the job was frozen off one shard
	// and rehydrated on another.
	Handoffs int
	// Verdict is the routed shard's admission verdict, or Shed for a
	// dispatcher-shed job.
	Verdict vm.Verdict
	// Arrival is the cluster arrival cycle the job was dispatched at
	// (the requested arrival, floored at the cluster horizon).
	Arrival cell.Clock
	// Deadline is the job's absolute completion deadline (0 = none).
	Deadline cell.Clock
	// Req is the dispatched request (Arrival already floored).
	Req vm.JobSpec
	// Inner is the shard-side job handle (nil for dispatcher-shed jobs).
	Inner *vm.Job
}

// Cluster is a booted fleet of shards behind one dispatcher. It is not
// itself goroutine-safe: Submit/Drain/Results are called from one
// driving goroutine, and only the epoch engine fans out.
type Cluster struct {
	cfg    Config
	shards []*Shard
	jobs   []*Job
	// horizon is the last epoch boundary every shard has reached (the
	// cluster clock: no shard is behind it, and no shard is more than
	// one RunUntil overshoot past it).
	horizon cell.Clock
	// barriers counts completed epoch barriers — the synchronization
	// cost the stride table prices.
	barriers int
}

// Boot builds each shard's program, boots each shard's system and
// returns the idle cluster. Shards are booted on the calling
// goroutine, in order; parallelism begins only once epochs advance.
func Boot(cfg Config, shards []ShardConfig) (*Cluster, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards configured")
	}
	if cfg.EpochStride <= 0 {
		cfg.EpochStride = DefaultEpochStride
	}
	c := &Cluster{cfg: cfg}
	for i, sc := range shards {
		if sc.Build == nil {
			return nil, fmt.Errorf("cluster: shard %d has no program builder", i)
		}
		prog, err := sc.Build()
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d build: %w", i, err)
		}
		v, err := vm.New(sc.Cfg, prog)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d boot: %w", i, err)
		}
		c.shards = append(c.shards, &Shard{ID: i, Sys: &vm.System{VM: v}})
	}
	return c, nil
}

// Shards returns the cluster's shards in boot order (the slice is the
// cluster's own; treat it as read-only).
func (c *Cluster) Shards() []*Shard { return c.shards }

// Jobs returns every dispatched job in submission order (a copy).
func (c *Cluster) Jobs() []*Job {
	out := make([]*Job, len(c.jobs))
	copy(out, c.jobs)
	return out
}

// Barriers returns the number of epoch barriers taken so far.
func (c *Cluster) Barriers() int { return c.barriers }
