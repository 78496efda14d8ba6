package main

import (
	"fmt"
	"sort"

	hera "herajvm"
	"herajvm/internal/isa"
	"herajvm/internal/profile"
)

// simResult is what one iteration of a workload did on the simulated
// clock. Every field is a pure function of the workload's inputs, so
// two iterations of one run — and two runs of one commit — must agree
// on all of it exactly.
type simResult struct {
	// Every guest program run is a job. attempted = completed + shed +
	// failed; failed jobs errored, trapped, deadlocked or returned a
	// checksum other than their Go reference; met jobs completed with a
	// correct checksum within their deadline (if any).
	attempted, completed, shed, failed, met int
	// latencies holds admission→completion cycles of the completed jobs.
	latencies []uint64
	// cycles is sim_cycles as the workload defines it: the sum of cell
	// completion clocks on the closed loops, the makespan on serve, the
	// last completion on cluster.
	cycles  uint64
	clockHz float64
	tally   tally
	// jobsTable is the cluster's merged result stream (cluster only).
	jobsTable string
	// errs keeps the first few public-call errors for the report.
	errs []error
}

// tally sums the counters the simulator already exports over every
// machine an iteration booted. It is read after the run, from outside.
type tally struct {
	cores   profile.CoreStats // every core
	lsCores profile.CoreStats // local-store cores: the software-cache layer

	eibTransfers, eibWait     uint64
	jitCompiles, jitCodeBytes uint64
	gcCount, gcCycles         uint64

	steals, migrations                        uint64
	kernelLaunches, kernelWorkers, kernelDMAB uint64
	admitted, delayed, deadlineMet            int
	overshootMax                              uint64

	barriers, handoffs int
	routed             [2]int
	util               [2]float64
}

func (r *simResult) fail(err error) {
	r.failed++
	if len(r.errs) < 4 {
		r.errs = append(r.errs, err)
	}
}

// addMachine folds one booted system's machine-level counters in.
func (t *tally) addMachine(sys *hera.System) {
	m := sys.VM.Machine
	for _, c := range m.Cores() {
		t.cores.Add(&c.Stats)
		if c.Kind.UsesLocalStore() {
			t.lsCores.Add(&c.Stats)
		}
	}
	t.eibTransfers += m.EIB.Transfers
	t.eibWait += m.EIB.WaitCycles
	for _, k := range isa.CoreKinds() {
		if c := sys.VM.Compiler(k); c != nil {
			t.jitCompiles += c.Compiles
			t.jitCodeBytes += c.CodeBytes
		}
	}
	t.gcCount += sys.VM.GCCount
	t.gcCycles += sys.VM.GCCycles
}

// addJob scores one job result against its reference checksum and
// folds its per-job counters in. due is the arrival the generator
// asked for (0 on the closed loops).
func (r *simResult) addJob(res *hera.Result, err error, ref int32, due uint64) {
	r.attempted++
	if res == nil {
		r.fail(err)
		return
	}
	if res.Shed {
		r.shed++
		return
	}
	t := &r.tally
	switch res.Verdict {
	case hera.Admitted:
		t.admitted++
	case hera.Delayed:
		t.delayed++
	}
	t.steals += res.Steals
	t.migrations += res.Migrations
	t.kernelLaunches += res.KernelLaunches
	t.kernelWorkers += res.KernelWorkers
	t.kernelDMAB += res.KernelDMABytes
	if res.AdmittedAt > due && res.AdmittedAt-due > t.overshootMax {
		t.overshootMax = res.AdmittedAt - due
	}
	switch {
	case err != nil:
		r.fail(err)
		return
	case int32(uint32(res.Value)) != ref:
		r.fail(fmt.Errorf("checksum %d, reference %d", int32(uint32(res.Value)), ref))
		return
	}
	r.completed++
	r.latencies = append(r.latencies, res.Cycles)
	if res.DeadlineMet {
		t.deadlineMet++
		r.met++
	}
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []uint64, p int) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func share(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func hitRate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 1
	}
	return float64(hits) / float64(hits+misses)
}

// endToEnd returns the simulated-clock end-to-end metrics.
func (r *simResult) endToEnd() map[string]float64 {
	lat := append([]uint64(nil), r.latencies...)
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	out := map[string]float64{
		"sim_cycles":         float64(r.cycles),
		"sim_lat_p50_cycles": float64(percentile(lat, 50)),
		"sim_lat_p90_cycles": float64(percentile(lat, 90)),
		"sim_served_share":   share(uint64(r.completed), uint64(r.attempted)),
		"correct_share":      share(uint64(r.attempted-r.failed), uint64(r.attempted)),
	}
	if r.cycles > 0 {
		out["sim_goodput_per_s"] = float64(r.met) / (float64(r.cycles) / r.clockHz)
	}
	return out
}

// counters returns the exact per-layer counters.
func (r *simResult) counters() map[string]float64 {
	t := &r.tally
	c := &t.cores
	busy := c.Busy()
	out := map[string]float64{
		"vm.instrs":      float64(c.Instrs),
		"vm.ff_hit_rate": share(c.FastForwardedInstrs, c.Instrs),
		"vm.ff_blocks":   float64(c.FastForwardedBlocks),
		"vm.gc_count":    float64(t.gcCount),
		"vm.gc_cycles":   float64(t.gcCycles),

		"jit.compiles":   float64(t.jitCompiles),
		"jit.code_bytes": float64(t.jitCodeBytes),

		"cache.data_hit_rate":   hitRate(t.lsCores.DataHits, t.lsCores.DataMisses),
		"cache.data_misses":     float64(t.lsCores.DataMisses),
		"cache.data_flushes":    float64(t.lsCores.DataFlushes),
		"cache.data_purges":     float64(t.lsCores.DataPurges),
		"cache.data_writebacks": float64(t.lsCores.DataWriteBacks),
		"cache.code_hit_rate":   hitRate(t.lsCores.CodeHits, t.lsCores.CodeMisses),
		"cache.staged_bytes":    float64(t.lsCores.DataStaged),

		"cell.dma_transfers":   float64(c.DMATransfers),
		"cell.dma_bytes":       float64(c.DMABytes),
		"cell.dma_wait_cycles": float64(c.DMAWait),
		"cell.eib_transfers":   float64(t.eibTransfers),
		"cell.eib_wait_cycles": float64(t.eibWait),
		"cell.idle_share":      share(c.Idle, busy+c.Idle),
		"cell.share_int":       share(c.Cycles[isa.ClassInt], busy),
		"cell.share_float":     share(c.Cycles[isa.ClassFloat], busy),
		"cell.share_branch":    share(c.Cycles[isa.ClassBranch], busy),
		"cell.share_stack":     share(c.Cycles[isa.ClassStack], busy),
		"cell.share_localmem":  share(c.Cycles[isa.ClassLocalMem], busy),
		"cell.share_mainmem":   share(c.Cycles[isa.ClassMainMem], busy),

		"sched.steals":     float64(t.steals),
		"sched.migrations": float64(t.migrations),

		"core.admitted":                     float64(t.admitted),
		"core.delayed":                      float64(t.delayed),
		"core.shed":                         float64(r.shed),
		"core.deadline_met":                 float64(t.deadlineMet),
		"core.arrival_overshoot_cycles_max": float64(t.overshootMax),

		"kernel.launches":  float64(t.kernelLaunches),
		"kernel.workers":   float64(t.kernelWorkers),
		"kernel.dma_bytes": float64(t.kernelDMAB),

		"cluster.barriers": float64(t.barriers),
		"cluster.handoffs": float64(t.handoffs),
		"cluster.routed_0": float64(t.routed[0]),
		"cluster.routed_1": float64(t.routed[1]),
		"cluster.util_0":   t.util[0],
		"cluster.util_1":   t.util[1],
	}
	return out
}

// exact returns every simulated number of the iteration, the identity
// two iterations are compared on.
func (r *simResult) exact() map[string]float64 {
	out := r.counters()
	for k, v := range r.endToEnd() {
		out[k] = v
	}
	return out
}

// diverged names a metric on which two iterations disagree, or "".
func diverged(a, b map[string]float64) string {
	names := make([]string, 0, len(a))
	for k := range a {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if a[k] != b[k] {
			return k
		}
	}
	return ""
}
