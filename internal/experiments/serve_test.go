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
// three-kind machine, the scheduler migrates threads across kinds and
// every job's checksum stays valid. With a roomy deadline nothing is
// shed, so the shedding run must match its non-shedding twin exactly —
// an admission pipeline that admits everything is a no-op.
func TestServeChurnDriver(t *testing.T) {
	s := runSmallServe(t)
	if len(s.Runs) != 2 {
		t.Fatalf("serve ran %d passes, want 2 (shedding off, on)", len(s.Runs))
	}
	off, on := s.Runs[0], s.Runs[1]
	if off.Shedding || !on.Shedding {
		t.Fatalf("run order: want shed off then on, got %v/%v", off.Shedding, on.Shedding)
	}
	if on.Shed != 0 {
		t.Errorf("shed %d jobs under a roomy deadline", on.Shed)
	}
	if off.Makespan != on.Makespan || off.P99 != on.P99 {
		t.Errorf("an all-admitting pipeline changed the run: makespan %d vs %d, p99 %d vs %d",
			off.Makespan, on.Makespan, off.P99, on.P99)
	}
	for _, r := range s.Runs {
		if !r.AllValid {
			t.Errorf("shed=%v run has invalid checksums", r.Shedding)
		}
		if len(r.Jobs) != s.NumJobs {
			t.Errorf("shed=%v run reports %d jobs, want %d", r.Shedding, len(r.Jobs), s.NumJobs)
		}
		for i, j := range r.Jobs {
			if !j.Shed && j.Cycles == 0 {
				t.Errorf("shed=%v job %d has no per-job latency", r.Shedding, i)
			}
		}
	}
	if off.Migrations == 0 {
		t.Error("no migrations under churn on an imbalanced topology")
	}
}

// TestServeReplayDeterminism replays the whole serve sweep and demands
// byte-identical tables and per-job latencies — the job-session
// determinism contract surfaced at the figure level. The per-job
// latencies of every pass are in no printed table, so no golden holds
// them.
func TestServeReplayDeterminism(t *testing.T) {
	a := runSmallServe(t)
	b := runSmallServe(t)
	if a.Table() != b.Table() {
		t.Errorf("serve tables diverged:\n--- first ---\n%s--- second ---\n%s", a.Table(), b.Table())
	}
	for r := range a.Runs {
		for i := range a.Runs[r].Jobs {
			if a.Runs[r].Jobs[i].Cycles != b.Runs[r].Jobs[i].Cycles {
				t.Errorf("shed=%v job %d latency diverged: %d vs %d", a.Runs[r].Shedding, i,
					a.Runs[r].Jobs[i].Cycles, b.Runs[r].Jobs[i].Cycles)
			}
		}
	}
}

// TestServeSheddingPaysAtOverload: the figure's default script is an
// overload (arrivals far faster than service) on the kind-imbalanced
// default machine, so its Check holds the claim that enabling the
// admission pipeline — the deadline probe plus its queue-depth
// backstop — sheds jobs and loses no goodput. Refusing work it cannot
// serve in time is how an open-loop system protects the jobs it can.
// The run is TestFigures/serve's own, shared through runGolden.
func TestServeSheddingPaysAtOverload(t *testing.T) {
	res, err := runGolden(goldenNamed(t, "serve"))
	if err != nil {
		t.Fatal(err)
	}
	s := res.(*ServeSweep)
	if !s.overloaded(Quick()) {
		t.Fatalf("the default sweep (%d jobs, gap %d, on %s) is not the overload its Check holds",
			s.NumJobs, s.Cadence, s.Topology)
	}
	if err := s.Check(Quick()); err != nil {
		t.Error(err)
	}
}
