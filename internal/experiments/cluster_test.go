package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/isa"
)

// runSmallCluster executes the cluster figure at a reduced size: two
// small shards, 6 jobs, uniform arrivals. Wall clocks still tick (the
// speedup is not asserted — this container may have one core) but all
// the deterministic columns are checked.
func runSmallCluster(t *testing.T) *ClusterSweep {
	t.Helper()
	opt := Quick()
	opt.ServeJobs = 6
	opt.ServeCadence = 300_000
	opt.ServeTrace = "uniform"
	opt.ShardTopos = []cell.Topology{
		{{Kind: isa.PPE, Count: 1}, {Kind: isa.SPE, Count: 2}},
		{{Kind: isa.PPE, Count: 1}, {Kind: isa.SPE, Count: 2}},
	}
	opt.NoWall = true
	s, err := RunCluster(opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestClusterFigure checks the sweep's structure and its determinism
// claims: every pass (serial, parallel, every stride) completes the
// whole script with valid checksums and a merged job table
// byte-identical to the serial reference.
func TestClusterFigure(t *testing.T) {
	s := runSmallCluster(t)
	if len(s.Shards) != 2 {
		t.Fatalf("fleet size %d, want 2", len(s.Shards))
	}
	if len(s.StrideRuns) != len(clusterStrides)-1 {
		t.Fatalf("stride table has %d rows, want %d", len(s.StrideRuns), len(clusterStrides)-1)
	}
	runs := append([]ClusterRun{s.Serial, s.Parallel}, s.StrideRuns...)
	for _, r := range runs {
		if r.Completed+r.Shed != s.NumJobs {
			t.Errorf("%s (stride %d): %d completed + %d shed != %d jobs",
				r.Mode, r.Stride, r.Completed, r.Shed, s.NumJobs)
		}
		if !r.AllValid {
			t.Errorf("%s (stride %d): checksum mismatch", r.Mode, r.Stride)
		}
		if !r.Identical {
			t.Errorf("%s (stride %d): merged job table diverged from serial reference", r.Mode, r.Stride)
		}
		if len(r.ShardJobs) != 2 || len(r.ShardUtil) != 2 {
			t.Errorf("%s (stride %d): per-shard columns sized %d/%d, want 2/2",
				r.Mode, r.Stride, len(r.ShardJobs), len(r.ShardUtil))
		}
	}
	// Finer strides take more barriers — the cost axis of the table.
	if s.Parallel.Barriers <= 0 {
		t.Error("parallel pass took no barriers")
	}
	// Check's divergence arm must pass on identical runs when the
	// speedup floor is waived.
	if err := s.Check(Options{}); err != nil {
		t.Errorf("gate with no floor rejected a clean sweep: %v", err)
	}
	// And an unreachable floor must trip it.
	if err := s.Check(Options{MinSpeedup: 1e9}); err == nil {
		t.Error("gate with an unreachable floor passed")
	}
}

// TestClusterTableReplays checks the figure's NoWall rendering is
// byte-identical across two full executions — the CI determinism
// gate's contract, asserted in-process.
func TestClusterTableReplays(t *testing.T) {
	a := runSmallCluster(t).Table()
	b := runSmallCluster(t).Table()
	if a != b {
		t.Fatalf("-nowall cluster table not replayable:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
	if strings.Contains(a, "wall") || strings.Contains(a, "speedup") {
		t.Fatalf("-nowall table leaks host timings:\n%s", a)
	}
}

// TestClusterJSONShape checks the BENCH_cluster.json artifact carries
// the gate's inputs.
func TestClusterJSONShape(t *testing.T) {
	out, err := json.Marshal(runSmallCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"speedup"`, `"host_cpus"`, `"stride_runs"`, `"shard_util"`, `"identical"`} {
		if !strings.Contains(string(out), key) {
			t.Errorf("BENCH_cluster.json missing %s", key)
		}
	}
}
