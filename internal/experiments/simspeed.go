package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"herajvm/internal/vm"
)

// SimSpeed measures the simulator itself: host wall-clock seconds per
// simulated gigacycle with the superblock fast path on (the default)
// and off (Config.DisableSuperblocks), across workloads and schedulers.
// The simulated results of the two runs must agree exactly — the sweep
// doubles as an end-to-end check of the memoization contract — so the
// Match column is as load-bearing as the speedup.
type SimSpeed struct {
	// Topology is the machine shape every cell used.
	Topology string        `json:"topology"`
	Rows     []SimSpeedRow `json:"rows"`
	// NoWall omits host-timing columns from Table so the output is
	// byte-for-byte replayable (wall clocks are not deterministic).
	NoWall bool `json:"-"`
}

// SimSpeedRow is one (workload, scheduler) cell of the sweep.
type SimSpeedRow struct {
	Workload  string `json:"workload"`
	Scheduler string `json:"scheduler"`
	// Cycles is the simulated completion time (identical in both runs
	// when Match holds).
	Cycles uint64 `json:"cycles"`
	// FastWallSecs/SlowWallSecs are host seconds for the run with the
	// fast path on/off; the PerGigacycle pair normalises them by
	// simulated work, which is the JSON baseline's unit of record.
	FastWallSecs         float64 `json:"fast_wall_secs"`
	SlowWallSecs         float64 `json:"slow_wall_secs"`
	FastSecsPerGigacycle float64 `json:"fast_secs_per_gigacycle"`
	SlowSecsPerGigacycle float64 `json:"slow_secs_per_gigacycle"`
	// Speedup is SlowWallSecs/FastWallSecs — dimensionless, so the CI
	// regression gate survives faster or slower runner hardware.
	Speedup float64 `json:"speedup"`
	// FFBlocks/FFInstrs count the fast run's memoized work; FFHitRate
	// is the fraction of all retired instructions that fast-forwarded.
	FFBlocks  uint64  `json:"ff_blocks"`
	FFInstrs  uint64  `json:"ff_instrs"`
	Instrs    uint64  `json:"instrs"`
	FFHitRate float64 `json:"ff_hit_rate"`
	// Match reports both runs were checksum-valid, agreed with each
	// other, and finished at the same simulated cycle.
	Match bool `json:"match"`
}

// RunSimSpeed executes the workloads x schedulers matrix twice per cell
// — fast path on, fast path off, each a host-timed arm — on the
// three-kind machine (so the fast path is exercised on service cores,
// SPEs and VPUs at once) and reports wall-clock speedups and
// fast-forward coverage. Options.Topologies[0] overrides the shape.
func RunSimSpeed(opt Options) (*SimSpeed, error) {
	topo := opt.topologies(DefaultServeTopology())[0]
	var arms []arm
	for _, name := range schedulers {
		fast := arm{label: name + " fast", topo: topo, sched: name, reps: 3}
		slow := fast
		slow.label = name + " stepped"
		slow.mutate = func(cfg *vm.Config) { cfg.DisableSuperblocks = true }
		arms = append(arms, fast, slow)
	}
	runs, err := grid(opt, "simspeed", opt.benches(), arms)
	if err != nil {
		return nil, err
	}
	out := &SimSpeed{Topology: topo.String(), NoWall: opt.NoWall}
	for _, r := range runs {
		for i, name := range schedulers {
			fast, slow := r[2*i], r[2*i+1]
			row := SimSpeedRow{
				Workload:     fast.Workload,
				Scheduler:    name,
				Cycles:       fast.Cycles,
				FastWallSecs: fast.Wall.Seconds(),
				SlowWallSecs: slow.Wall.Seconds(),
				FFBlocks:     fast.All.FastForwardedBlocks,
				FFInstrs:     fast.All.FastForwardedInstrs,
				Instrs:       fast.All.Instrs,
				Match: fast.Valid && slow.Valid &&
					fast.Checksum == slow.Checksum && fast.Cycles == slow.Cycles,
			}
			if fast.Cycles > 0 {
				g := float64(fast.Cycles) / 1e9
				row.FastSecsPerGigacycle = row.FastWallSecs / g
				row.SlowSecsPerGigacycle = row.SlowWallSecs / g
			}
			if row.FastWallSecs > 0 {
				row.Speedup = row.SlowWallSecs / row.FastWallSecs
			}
			if row.Instrs > 0 {
				row.FFHitRate = float64(row.FFInstrs) / float64(row.Instrs)
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// Table renders the sweep as text. With NoWall only the deterministic
// columns print, so the determinism gates can replay the figure.
func (s *SimSpeed) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Simulator speed: superblock fast-forward vs per-instruction stepping (%s)\n", s.Topology)
	if s.NoWall {
		fmt.Fprintf(&b, "%-12s %-9s %14s %12s %14s %8s %6s\n",
			"benchmark", "sched", "cycles", "ff blocks", "ff instrs", "hit", "match")
		for _, r := range s.Rows {
			fmt.Fprintf(&b, "%-12s %-9s %14d %12d %14d %8.3f %6v\n",
				r.Workload, r.Scheduler, r.Cycles, r.FFBlocks, r.FFInstrs, r.FFHitRate, r.Match)
		}
		return b.String()
	}
	fmt.Fprintf(&b, "%-12s %-9s %14s %10s %10s %8s %8s %6s\n",
		"benchmark", "sched", "cycles", "fast s", "slow s", "speedup", "hit", "match")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%-12s %-9s %14d %10.3f %10.3f %7.2fx %8.3f %6v\n",
			r.Workload, r.Scheduler, r.Cycles, r.FastWallSecs, r.SlowWallSecs,
			r.Speedup, r.FFHitRate, r.Match)
	}
	return b.String()
}

// Check demands every cell's fast and stepped runs agreed and, when
// Options.Baseline carries a previous run's JSON, that no cell's
// speedup regressed below 75% of the baseline's. The comparison is
// between dimensionless speedup ratios, so faster or slower runner
// hardware does not move the gate.
func (s *SimSpeed) Check(opt Options) error {
	ref := map[string]float64{}
	if opt.Baseline != nil {
		var base SimSpeed
		if err := json.Unmarshal(opt.Baseline, &base); err != nil {
			return fmt.Errorf("simspeed baseline: %w", err)
		}
		for _, r := range base.Rows {
			ref[r.Workload+"/"+r.Scheduler] = r.Speedup
		}
	}
	var problems []string
	for _, r := range s.Rows {
		if !r.Match {
			problems = append(problems,
				fmt.Sprintf("%s/%s: fast and slow runs diverged", r.Workload, r.Scheduler))
			continue
		}
		want := ref[r.Workload+"/"+r.Scheduler]
		if floor := want * 0.75; r.Speedup < floor {
			problems = append(problems, fmt.Sprintf(
				"%s/%s: speedup %.2fx below floor %.2fx (baseline %.2fx)",
				r.Workload, r.Scheduler, r.Speedup, floor, want))
		}
	}
	return gateError("simspeed", problems)
}
