package main

import "encoding/json"

// metricDef describes one published metric. The catalogue below is the
// source BENCHMARK.json is written from (-manifest) and the test keeps
// the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change is rejected (0 on per-layer
	// metrics, which have none).
	Bound float64
	// Exact marks a number taken on the simulated clock: it must repeat
	// exactly, and -compare holds it to equality whatever its bound.
	Exact bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndDefs are the metrics a user of the system sees. Host-clock
// ones are medians over a run's measured iterations; simulated-clock
// ones are exact. None is ever 0 on any workload, which is why the
// issue's sim_shed_share and failed_share are published as their
// complements (sim_served_share, correct_share).
//
// The host-time bounds are 25 %, not the 10 % the issue hoped for: the
// 2-vCPU box the baselines came from changes speed by 15-25 % for
// minutes at a time (a pure register loop takes 295 ms or 377 ms; two
// such loops on two goroutines sometimes take the time of one, sometimes
// of two), and medians of identical runs moved by up to 15 % between
// sets of ten. A bound tighter than the machine can resolve would reject
// unchanged code. alloc_mb and every simulated metric repeat exactly and
// keep their tight bounds.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "sim_mips", Unit: "Minstr/s", Better: higher, Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: lower, Bound: 0.03},
	{Name: "sim_cycles", Unit: "cycles", Better: lower, Bound: 0.01, Exact: true},
	{Name: "sim_goodput_per_s", Unit: "jobs/sim_s", Better: higher, Bound: 0.01, Exact: true},
	{Name: "sim_lat_p50_cycles", Unit: "cycles", Better: lower, Bound: 0.01, Exact: true},
	{Name: "sim_lat_p90_cycles", Unit: "cycles", Better: lower, Bound: 0.01, Exact: true},
	{Name: "sim_served_share", Unit: "share", Better: higher, Bound: 0.01, Exact: true},
	{Name: "correct_share", Unit: "share", Better: higher, Bound: 0.01, Exact: true},
}

// perLayerDefs are the single-layer metrics; layer = module name. Three
// sources, all outside the program: spans around the driver's own calls
// (seconds of self time per iteration), probes that time a layer's
// exported functions in isolation (host ns per operation), and the
// counters the simulator already exports (exact).
var perLayerDefs = []metricDef{
	// Spans.
	{Name: "workloads.build_s", Unit: "s", Better: lower},
	{Name: "classfile.resolve_s", Unit: "s", Better: lower},
	{Name: "core.boot_s", Unit: "s", Better: lower},
	{Name: "core.submit_s", Unit: "s", Better: lower},
	{Name: "core.run_s", Unit: "s", Better: lower},
	{Name: "core.results_s", Unit: "s", Better: lower},
	{Name: "cluster.boot_s", Unit: "s", Better: lower},
	{Name: "cluster.submit_s", Unit: "s", Better: lower},
	{Name: "cluster.drain_s", Unit: "s", Better: lower},
	{Name: "cluster.results_s", Unit: "s", Better: lower},
	{Name: "experiments.arrivals_s", Unit: "s", Better: lower},
	{Name: "bench.reference_s", Unit: "s", Better: lower},
	{Name: "bench.guard_s", Unit: "s", Better: lower},
	{Name: "core.boot_share", Unit: "share", Better: lower},
	{Name: "core.run_share", Unit: "share", Better: higher},
	{Name: "core.run_s.compress", Unit: "s", Better: lower},
	{Name: "core.run_s.mpegaudio", Unit: "s", Better: lower},
	{Name: "core.run_s.mandelbrot", Unit: "s", Better: lower},

	// Probes.
	{Name: "mem.newmain_ns", Unit: "ns", Better: lower},
	{Name: "cell.newmachine_ns", Unit: "ns", Better: lower},
	{Name: "cell.eib_transfer_ns", Unit: "ns", Better: lower},
	{Name: "cell.mfc_dma_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "cache.data_read_hit_ns", Unit: "ns", Better: lower},
	{Name: "cache.data_read_miss_ns", Unit: "ns", Better: lower},
	{Name: "cache.data_write_hit_ns", Unit: "ns", Better: lower},
	{Name: "cache.data_stage_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "cache.data_flush_ns", Unit: "ns", Better: lower},
	{Name: "cache.data_purge_ns", Unit: "ns", Better: lower},
	{Name: "cache.code_ensure_hit_ns", Unit: "ns", Better: lower},
	{Name: "cache.code_ensure_miss_ns", Unit: "ns", Better: lower},
	{Name: "jit.compile_ns_per_method.ppe", Unit: "ns", Better: lower},
	{Name: "jit.compile_ns_per_method.spe", Unit: "ns", Better: lower},
	{Name: "jit.compile_ns_per_method.vpu", Unit: "ns", Better: lower},
	{Name: "jit.compile_allocs_per_method", Unit: "count", Better: lower},
	{Name: "sched.enqueue_pick_ns.calendar", Unit: "ns", Better: lower},
	{Name: "sched.enqueue_pick_ns.steal", Unit: "ns", Better: lower},
	{Name: "sched.enqueue_pick_ns.migrate", Unit: "ns", Better: lower},
	{Name: "sched.steal_ns", Unit: "ns", Better: lower},
	{Name: "kernel.plan_ns", Unit: "ns", Better: lower},
	{Name: "core.probe_ns", Unit: "ns", Better: lower},
	{Name: "vm.freeze_ns", Unit: "ns", Better: lower},
	{Name: "vm.encode_ns", Unit: "ns", Better: lower},
	{Name: "vm.decode_ns", Unit: "ns", Better: lower},
	{Name: "vm.rehydrate_ns", Unit: "ns", Better: lower},
	{Name: "vm.image_bytes", Unit: "bytes", Better: lower, Exact: true},
	{Name: "vm.fast_ns_per_instr", Unit: "ns", Better: lower},
	{Name: "vm.step_ns_per_instr", Unit: "ns", Better: lower},

	// Counters the simulator exports (exact).
	{Name: "vm.instrs", Unit: "count", Better: lower, Exact: true},
	{Name: "vm.ff_hit_rate", Unit: "share", Better: higher, Exact: true},
	{Name: "vm.ff_blocks", Unit: "count", Better: higher, Exact: true},
	{Name: "vm.gc_count", Unit: "count", Better: lower, Exact: true},
	{Name: "vm.gc_cycles", Unit: "cycles", Better: lower, Exact: true},
	{Name: "jit.compiles", Unit: "count", Better: lower, Exact: true},
	{Name: "jit.code_bytes", Unit: "bytes", Better: lower, Exact: true},
	{Name: "cache.data_hit_rate", Unit: "share", Better: higher, Exact: true},
	{Name: "cache.data_misses", Unit: "count", Better: lower, Exact: true},
	{Name: "cache.data_flushes", Unit: "count", Better: lower, Exact: true},
	{Name: "cache.data_purges", Unit: "count", Better: lower, Exact: true},
	{Name: "cache.data_writebacks", Unit: "count", Better: lower, Exact: true},
	{Name: "cache.code_hit_rate", Unit: "share", Better: higher, Exact: true},
	{Name: "cache.staged_bytes", Unit: "bytes", Better: higher, Exact: true},
	{Name: "cell.dma_transfers", Unit: "count", Better: lower, Exact: true},
	{Name: "cell.dma_bytes", Unit: "bytes", Better: lower, Exact: true},
	{Name: "cell.dma_wait_cycles", Unit: "cycles", Better: lower, Exact: true},
	{Name: "cell.eib_transfers", Unit: "count", Better: lower, Exact: true},
	{Name: "cell.eib_wait_cycles", Unit: "cycles", Better: lower, Exact: true},
	{Name: "cell.idle_share", Unit: "share", Better: lower, Exact: true},
	{Name: "cell.share_int", Unit: "share", Better: higher, Exact: true},
	{Name: "cell.share_float", Unit: "share", Better: higher, Exact: true},
	{Name: "cell.share_branch", Unit: "share", Better: lower, Exact: true},
	{Name: "cell.share_stack", Unit: "share", Better: lower, Exact: true},
	{Name: "cell.share_localmem", Unit: "share", Better: lower, Exact: true},
	{Name: "cell.share_mainmem", Unit: "share", Better: lower, Exact: true},
	{Name: "sched.steals", Unit: "count", Better: higher, Exact: true},
	{Name: "sched.migrations", Unit: "count", Better: higher, Exact: true},
	{Name: "core.admitted", Unit: "count", Better: higher, Exact: true},
	{Name: "core.delayed", Unit: "count", Better: lower, Exact: true},
	{Name: "core.shed", Unit: "count", Better: lower, Exact: true},
	{Name: "core.deadline_met", Unit: "count", Better: higher, Exact: true},
	{Name: "core.arrival_overshoot_cycles_max", Unit: "cycles", Better: lower, Exact: true},
	{Name: "kernel.launches", Unit: "count", Better: higher, Exact: true},
	{Name: "kernel.workers", Unit: "count", Better: higher, Exact: true},
	{Name: "kernel.dma_bytes", Unit: "bytes", Better: lower, Exact: true},
	{Name: "cluster.barriers", Unit: "count", Better: lower, Exact: true},
	{Name: "cluster.handoffs", Unit: "count", Better: higher, Exact: true},
	{Name: "cluster.routed_0", Unit: "count", Better: lower, Exact: true},
	{Name: "cluster.routed_1", Unit: "count", Better: higher, Exact: true},
	{Name: "cluster.util_0", Unit: "share", Better: higher, Exact: true},
	{Name: "cluster.util_1", Unit: "share", Better: higher, Exact: true},

	// Host-side counters of the measured process.
	{Name: "host.trace_overhead", Unit: "share", Better: lower},
	{Name: "host.peak_rss_mb", Unit: "MB", Better: lower},
	{Name: "host.mallocs", Unit: "count", Better: lower},
	{Name: "host.gc_count", Unit: "count", Better: lower},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "host.jobs_per_s", Unit: "jobs/s", Better: higher},
	{Name: "host.ns_per_sim_cycle", Unit: "ns", Better: lower},
	{Name: "host.iter_spread", Unit: "share", Better: lower},
	{Name: "host.setup_cold_s", Unit: "s", Better: lower},
}

// metricByName indexes both catalogues.
var metricByName = func() map[string]metricDef {
	out := make(map[string]metricDef, len(endToEndDefs)+len(perLayerDefs))
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			out[d.Name] = d
		}
	}
	return out
}()

// runSeconds is how long one run measures: BENCHMARK.json's
// run_seconds and the default of -seconds.
const runSeconds = 10

var workloadWhy = map[string]string{
	"figs":    "closed loop of 72 short cold cells (6 programs x 4 topologies x 3 schedulers): boot, build, resolve and cold JIT are a third of the time, as for herabench -fig users",
	"exec":    "closed loop of 3 long programs on the PS3 shape: steady-state executor, data cache demand path and EIB; boot and build are under 1 percent, so boot work must not show here",
	"serve":   "open loop of 120 mixed jobs (half kernel launches) on one System just past saturation: admission shedding, steal/migrate churn, GC billing, staged DMA, a 120-entry program",
	"cluster": "open loop of 60 jobs through a 2-shard imbalanced cluster with hand-off: per-shard probes, epoch barriers, freeze/codec/rehydrate and the only host-parallel path",
}

// manifest renders BENCHMARK.json from the catalogue.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, name := range workloadNames {
		doc.Workloads = append(doc.Workloads, wl{name, workloadWhy[name]})
	}
	for _, d := range endToEndDefs {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayerDefs {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
