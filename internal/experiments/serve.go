package experiments

import (
	"cmp"
	"fmt"
	"strings"

	"herajvm/internal/cell"
	"herajvm/internal/vm"
)

// The serve driver is the ROADMAP's serving harness grown open-loop:
// jobs drawn round-robin from the paper's three workloads arrive at
// the cycles a seeded arrival trace dictates — regardless of whether
// the machine is keeping up — carrying a completion deadline, and the
// booted VM's admission pipeline decides admit/delay/shed per arrival
// from the scheduler's drain estimates. The driver interleaves
// RunUntil(arrival) with Submit so every verdict is decided against
// the machine state actually holding at that arrival, then reports the
// SLO view with shedding off and on: p50/p95/p99 admission→completion
// latency, shed count, and goodput (deadline-met jobs per simulated
// second). Both passes replay byte for byte from (trace, seed, jobs,
// cadence).

// serveDefaults are the serve figure's script defaults. The deadline is
// roomy enough that early jobs on an idle machine meet it, tight enough
// that deep queues cannot.
var serveDefaults = Script{NumJobs: 21, Cadence: 500_000, Trace: defaultServeTrace, Deadline: 60_000_000}

const (
	// defaultServeMaxPending is the admission queue-depth backstop for
	// shedding runs — a guard against drain estimates going blind, not
	// the primary control (the deadline probe is).
	defaultServeMaxPending = 32
	// servePerJobMax caps the per-job table; trace runs with hundreds
	// of jobs report only the summary matrix.
	servePerJobMax = 40
)

// ServeJob is one job of a serve run: the session's own per-job Result
// (verdict, admission cycle, admission→completion latency, deadline
// verdict, scheduling-event counters) plus what only the driver knows.
type ServeJob struct {
	Workload string
	// Valid reports the job's checksum matched the Go reference (true
	// vacuously for shed jobs, which are excluded from AllValid).
	Valid bool
	*vm.Result
}

// ServeRun is one pass over the arrival script, shedding off or on.
// The JSON artifact carries the summary, not per-job rows: its job is
// trend tracking across commits.
type ServeRun struct {
	// Shedding reports whether deadline shedding was enabled.
	Shedding bool `json:"shedding"`
	SLO
	// Makespan is the simulated cycle the last job completed.
	Makespan cell.Clock `json:"-"`
	Jobs     []ServeJob `json:"-"`
	// Migrations and Steals total the per-job counters.
	Migrations uint64 `json:"-"`
	Steals     uint64 `json:"-"`
}

// ServeSweep compares shedding off vs on over one arrival script — the
// BENCH_serve.json shape (goodput and latency percentiles per run, plus
// the arrival-script parameters that name the run).
type ServeSweep struct {
	Topology string `json:"topology"`
	Script
	// MaxPending is the queue-depth backstop of shedding runs.
	MaxPending int        `json:"max_pending"`
	Runs       []ServeRun `json:"runs"`
}

// RunServe executes the open-loop driver: resolve the arrival script,
// then for shedding off and on, boot one VM, drive the
// machine to each arrival before submitting (so admission verdicts see
// real machine state), drain, and report the SLO view. The script is
// identical across runs, and each run is deterministic — replaying the
// sweep must reproduce its table byte for byte.
func RunServe(opt Options) (*ServeSweep, error) {
	script, err := newScript(opt, serveDefaults)
	if err != nil {
		return nil, err
	}
	maxPending := cmp.Or(opt.ServeMaxPending, defaultServeMaxPending)
	topo := opt.topologies(DefaultServeTopology())[0]
	out := &ServeSweep{Topology: topo.String(), Script: *script, MaxPending: maxPending}
	for _, shed := range []bool{false, true} {
		if err := opt.interrupted(); err != nil {
			return nil, err
		}
		cfg := openLoopConfig(topo)
		if shed {
			cfg.Admission = vm.AdmissionConfig{MaxPending: maxPending, Shed: true}
		}
		run, err := runServeOnce(cfg, script)
		if err != nil {
			return nil, fmt.Errorf("serve shed=%v: %w", shed, err)
		}
		opt.logf("serve shed=%v on %s: %d jobs, %d shed, goodput=%.2f/s p99=%d",
			shed, topo, script.NumJobs, run.Shed, run.Goodput, run.P99)
		out.Runs = append(out.Runs, run)
	}
	return out, nil
}

// runServeOnce boots one VM and plays the arrival script open-loop:
// drive the machine to each arrival, submit, drain the tail.
func runServeOnce(cfg vm.Config, script *Script) (ServeRun, error) {
	prog, err := script.build()
	if err != nil {
		return ServeRun{}, err
	}
	sys, err := vm.New(cfg, prog)
	if err != nil {
		return ServeRun{}, err
	}
	var jobs []*vm.Job
	err = script.play(func(req vm.JobSpec) error {
		// Open loop: advance simulated time to the arrival first, so the
		// verdict is decided against the machine state holding then.
		if err := sys.RunUntil(req.Arrival); err != nil {
			return err
		}
		job, _, err := sys.Submit(req)
		jobs = append(jobs, job)
		return err
	})
	if err == nil {
		err = sys.Drain()
	}
	if err != nil {
		return ServeRun{}, err
	}

	run := ServeRun{Shedding: cfg.Admission.Shed}
	results, valid := make([]*vm.Result, len(jobs)), make([]bool, len(jobs))
	for i, job := range jobs {
		res, err := job.Wait() // already done: returns without driving
		if err != nil {
			return ServeRun{}, fmt.Errorf("job %d: %w", i, err)
		}
		results[i], valid[i] = res, script.valid(i, res)
		run.Migrations += res.Migrations
		run.Steals += res.Steals
		run.Jobs = append(run.Jobs, ServeJob{script.entries[i].Spec.Name, valid[i], res})
	}
	run.SLO, run.Makespan = foldSLO(results, valid, cfg.Machine.EffectiveClockHz())
	return run, nil
}

// Check demands every completed job of every pass matched its
// reference checksum.
func (s *ServeSweep) Check(Options) error {
	var problems []string
	for _, r := range s.Runs {
		if !r.AllValid {
			problems = append(problems, fmt.Sprintf("shedding %v: a completed job's checksum diverged from its reference",
				r.Shedding))
		}
	}
	return gateError("serve", problems)
}

// Table renders the sweep as text: one summary row per run, then
// per-job accounting for the final run when the script is small enough
// to print.
func (s *ServeSweep) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Serve: %d jobs, %s trace (seed %d), mean gap %d cycles, deadline %d, topology %s\n",
		s.NumJobs, s.Trace, s.Seed, s.Cadence, s.Deadline, s.Topology)
	fmt.Fprintf(&b, "%5s %5s %4s %4s %10s %12s %12s %12s %8s %6s\n",
		"shed?", "done", "shed", "met", "goodput/s", "p50", "p95", "p99", "steals", "valid")
	for _, r := range s.Runs {
		fmt.Fprintf(&b, "%5v %5d %4d %4d %10.2f %12d %12d %12d %8d %6v\n",
			r.Shedding, r.Completed, r.Shed, r.Met, r.Goodput,
			r.P50, r.P95, r.P99, r.Steals, r.AllValid)
	}
	last := s.Runs[len(s.Runs)-1]
	if len(last.Jobs) <= servePerJobMax {
		fmt.Fprintf(&b, "per-job (shed=%v):\n", last.Shedding)
		fmt.Fprintf(&b, "%4s %-12s %12s %-9s %12s %5s %5s %7s %6s %6s\n",
			"job", "workload", "arrival", "verdict", "latency", "met", "mig", "steals", "gc", "valid")
		for i, j := range last.Jobs {
			fmt.Fprintf(&b, "%4d %-12s %12d %-9s %12d %5v %5d %7d %6d %6v\n",
				i, j.Workload, j.AdmittedAt, j.Verdict, j.Cycles, j.DeadlineMet,
				j.Migrations, j.Steals, j.GCPauses, j.Valid)
		}
	}
	return b.String()
}
