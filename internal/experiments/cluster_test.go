package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/isa"
)

// runSmallCluster executes the cluster figure at a reduced size: two
// small shards, 6 jobs, uniform arrivals.
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
	if err := s.Check(Options{}); err != nil {
		t.Errorf("gate rejected a clean sweep: %v", err)
	}
}

// TestClusterJSONShape checks the figure's -json document carries the
// gate's inputs.
func TestClusterJSONShape(t *testing.T) {
	out, err := json.Marshal(runSmallCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"barriers"`, `"stride_runs"`, `"shard_util"`, `"identical"`} {
		if !strings.Contains(string(out), key) {
			t.Errorf("cluster JSON missing %s", key)
		}
	}
}
