package experiments

import "testing"

// runSmallServe executes the open-loop driver at a reduced size (6
// jobs, uniform arrivals, roomy deadline) suitable for unit tests.
func runSmallServe(t *testing.T) *ServeSweep {
	t.Helper()
	opt := Quick()
	opt.ServeJobs = 6
	opt.ServeCadence = 300_000
	opt.ServeTrace = "uniform"
	opt.ServeDeadline = 1 << 62 // effectively no deadline pressure
	s, err := RunServe(opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServeChurnDriver checks the serve sweep's structure and the
// claim it exists to demonstrate: under churn on a kind-imbalanced
// three-kind machine, cross-kind migration completes the job stream no
// later than stealing, which completes it no later than the bare
// calendar — and every job's checksum stays valid under every
// scheduler (schedulers are performance policies, never semantics).
// With a roomy deadline nothing is shed, so the shedding runs must
// match their non-shedding twins exactly — an admission pipeline that
// admits everything is a no-op.
func TestServeChurnDriver(t *testing.T) {
	s := runSmallServe(t)
	if len(s.Runs) != 6 {
		t.Fatalf("serve ran %d (scheduler, shedding) passes, want 6", len(s.Runs))
	}
	for i := 0; i < len(s.Runs); i += 2 {
		off, on := s.Runs[i], s.Runs[i+1]
		if off.Shedding || !on.Shedding {
			t.Fatalf("run order: want shed off/on pairs, got %v/%v", off.Shedding, on.Shedding)
		}
		if on.Shed != 0 {
			t.Errorf("%s shed %d jobs under a roomy deadline", on.Scheduler, on.Shed)
		}
		if off.Makespan != on.Makespan || off.P99 != on.P99 {
			t.Errorf("%s: an all-admitting pipeline changed the run: makespan %d vs %d, p99 %d vs %d",
				off.Scheduler, off.Makespan, on.Makespan, off.P99, on.P99)
		}
	}
	cal, steal, mig := s.Runs[0], s.Runs[2], s.Runs[4]
	for _, r := range s.Runs {
		if !r.AllValid {
			t.Errorf("%s run has invalid checksums", r.Scheduler)
		}
		if len(r.Jobs) != s.NumJobs {
			t.Errorf("%s run reports %d jobs, want %d", r.Scheduler, len(r.Jobs), s.NumJobs)
		}
		for i, j := range r.Jobs {
			if !j.Shed && j.Cycles == 0 {
				t.Errorf("%s job %d has no per-job latency", r.Scheduler, i)
			}
		}
	}
	if steal.Makespan > cal.Makespan {
		t.Errorf("stealing worsened the churn makespan: %d vs calendar %d", steal.Makespan, cal.Makespan)
	}
	if mig.Makespan > steal.Makespan {
		t.Errorf("migration worsened the churn makespan: %d vs steal %d", mig.Makespan, steal.Makespan)
	}
	if mig.Migrations == 0 {
		t.Error("the migrate run performed no migrations under churn on an imbalanced topology")
	}
}

// TestServeReplayDeterminism replays the whole serve sweep and demands
// byte-identical tables and per-job latencies — the job-session
// determinism contract surfaced at the figure level (CI replays the
// full-size driver the same way).
func TestServeReplayDeterminism(t *testing.T) {
	a := runSmallServe(t)
	b := runSmallServe(t)
	if a.Table() != b.Table() {
		t.Errorf("serve tables diverged:\n--- first ---\n%s--- second ---\n%s", a.Table(), b.Table())
	}
	for r := range a.Runs {
		for i := range a.Runs[r].Jobs {
			if a.Runs[r].Jobs[i].Cycles != b.Runs[r].Jobs[i].Cycles {
				t.Errorf("%s job %d latency diverged: %d vs %d", a.Runs[r].Scheduler, i,
					a.Runs[r].Jobs[i].Cycles, b.Runs[r].Jobs[i].Cycles)
			}
		}
	}
}

// TestServeSheddingPaysAtOverload is the PR's acceptance claim: on an
// overloaded Poisson trace (arrivals far faster than service) on the
// kind-imbalanced default topology, enabling the admission pipeline —
// the deadline probe plus its queue-depth backstop — yields strictly
// higher goodput and strictly lower p99 latency than running
// everything, for every scheduler. Refusing work it cannot serve in
// time is how an open-loop system protects the jobs it can.
func TestServeSheddingPaysAtOverload(t *testing.T) {
	opt := Quick()
	opt.ServeJobs = 15
	opt.ServeCadence = 300_000 // overload: the whole script arrives in one burst
	opt.ServeTrace = "poisson"
	opt.ServeDeadline = 40_000_000
	opt.ServeMaxPending = 6
	s, err := RunServe(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(s.Runs); i += 2 {
		off, on := s.Runs[i], s.Runs[i+1]
		if on.Shed == 0 {
			t.Errorf("%s: nothing shed at overload", on.Scheduler)
		}
		if on.Goodput <= off.Goodput {
			t.Errorf("%s: shedding did not raise goodput: %.3f/s vs %.3f/s",
				on.Scheduler, on.Goodput, off.Goodput)
		}
		if on.P99 >= off.P99 {
			t.Errorf("%s: shedding did not lower p99: %d vs %d", on.Scheduler, on.P99, off.P99)
		}
	}
}
