package experiments

import (
	"fmt"
	"strings"

	"herajvm/internal/profile"
	"herajvm/internal/vm"
)

// FastPath holds the superblock fast path to the stepping executor, end
// to end: every workload under every scheduler runs twice — fast path
// on (the default) and off (Config.DisableSuperblocks) — and the two
// simulated results must agree exactly. The coverage columns record how
// much of the run the fast path absorbed. How long either executor
// takes on the host is the repository benchmark's to say
// (vm.fast_ns_per_instr, vm.step_ns_per_instr; benchmark/README.md).
type FastPath struct {
	// Topology is the machine shape every cell used.
	Topology string        `json:"topology"`
	Rows     []FastPathRow `json:"rows"`
}

// FastPathRow is one (workload, scheduler) cell of the sweep.
type FastPathRow struct {
	Workload  string `json:"workload"`
	Scheduler string `json:"scheduler"`
	// Cycles is the simulated completion time (identical in both runs
	// when Match holds).
	Cycles uint64 `json:"cycles"`
	// FFBlocks/FFInstrs count the fast run's memoized work; FFHitRate
	// is the fraction of all retired instructions that fast-forwarded.
	FFBlocks  uint64  `json:"ff_blocks"`
	FFInstrs  uint64  `json:"ff_instrs"`
	Instrs    uint64  `json:"instrs"`
	FFHitRate float64 `json:"ff_hit_rate"`
	// Match reports both runs were checksum-valid, agreed with each
	// other, finished at the same simulated cycle and did the same work
	// (sameWork).
	Match bool `json:"match"`
}

// RunFastPath executes the workloads x schedulers matrix twice per cell
// — fast path on, fast path off — on the three-kind machine (so the
// fast path is exercised on service cores, SPEs and VPUs at once).
// Options.Topologies[0] overrides the shape.
func RunFastPath(opt Options) (*FastPath, error) {
	topo := opt.topologies(DefaultServeTopology())[0]
	var arms []arm
	for _, name := range schedulers {
		fast := arm{label: name + " fast", topo: topo, sched: name}
		slow := fast
		slow.label = name + " stepped"
		slow.mutate = func(cfg *vm.Config) { cfg.DisableSuperblocks = true }
		arms = append(arms, fast, slow)
	}
	runs, err := grid(opt, "fastpath", opt.benches(), arms)
	if err != nil {
		return nil, err
	}
	out := &FastPath{Topology: topo.String()}
	for _, r := range runs {
		for i, name := range schedulers {
			out.Rows = append(out.Rows, fastPathRow(name, r[2*i], r[2*i+1]))
		}
	}
	return out, nil
}

// fastPathRow compares one cell's fast and stepped runs.
func fastPathRow(scheduler string, fast, slow RunStats) FastPathRow {
	row := FastPathRow{
		Workload:  fast.Workload,
		Scheduler: scheduler,
		Cycles:    fast.Cycles,
		FFBlocks:  fast.All.FastForwardedBlocks,
		FFInstrs:  fast.All.FastForwardedInstrs,
		Instrs:    fast.All.Instrs,
		Match: fast.Valid && slow.Valid && fast.Checksum == slow.Checksum &&
			fast.Cycles == slow.Cycles && sameWork(fast, slow),
	}
	if row.Instrs > 0 {
		row.FFHitRate = float64(row.FFInstrs) / float64(row.Instrs)
	}
	return row
}

// sameWork reports whether two runs' machines did the same work: every
// counter of All and of Accel — per-class cycles, instructions, idle,
// cache, DMA — except the fast-forward counters, which record only
// which path did it.
func sameWork(fast, slow RunStats) bool {
	for _, s := range []*profile.CoreStats{&fast.All, &fast.Accel, &slow.All, &slow.Accel} {
		s.FastForwardedBlocks, s.FastForwardedInstrs = 0, 0
	}
	return fast.All == slow.All && fast.Accel == slow.Accel
}

// Table renders the sweep as text.
func (s *FastPath) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Simulator speed: superblock fast-forward vs per-instruction stepping (%s)\n", s.Topology)
	fmt.Fprintf(&b, "%-12s %-9s %14s %12s %14s %8s %6s\n",
		"benchmark", "sched", "cycles", "ff blocks", "ff instrs", "hit", "match")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%-12s %-9s %14d %12d %14d %8.3f %6v\n",
			r.Workload, r.Scheduler, r.Cycles, r.FFBlocks, r.FFInstrs, r.FFHitRate, r.Match)
	}
	return b.String()
}

// Check demands every cell's fast and stepped runs agreed.
func (s *FastPath) Check(Options) error {
	var problems []string
	for _, r := range s.Rows {
		if !r.Match {
			problems = append(problems,
				fmt.Sprintf("%s/%s: fast and slow runs diverged", r.Workload, r.Scheduler))
		}
	}
	return gateError("fastpath", problems)
}
