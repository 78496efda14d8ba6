package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/isa"
	"herajvm/internal/vm"
)

// bootImbalanced boots the hand-off scenario: shard 0 is a weak
// PPE-only machine, shard 1 a strong 1-PPE + 6-SPE machine. The
// capacity-blind admission probe splits a simultaneous burst evenly
// between them, overloading the weak shard — the misrouting hand-off
// exists to repair.
func bootImbalanced(t *testing.T, cfg Config, spin int32) *Cluster {
	t.Helper()
	weak := vm.DefaultConfig()
	weak.Machine.Topology = cell.Topology{{Kind: isa.PPE, Count: 1}}
	strong := vm.DefaultConfig()
	strong.Machine.Topology = cell.Topology{
		{Kind: isa.PPE, Count: 1}, {Kind: isa.SPE, Count: 6},
	}
	c, err := Boot(cfg, []ShardConfig{
		{Cfg: weak, Build: buildWork(spin)},
		{Cfg: strong, Build: buildWork(spin)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// playBurst submits a simultaneous deadline burst and drains.
func playBurst(t *testing.T, c *Cluster, jobs int, deadline cell.Clock) []Result {
	t.Helper()
	for i := 0; i < jobs; i++ {
		if _, _, err := c.Submit(vm.JobSpec{
			Class: "Work", Method: "main", Name: fmt.Sprintf("job#%d", i),
			Deadline: deadline,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	results, err := c.Results()
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// burstScore folds a result stream into (deadlines met, hand-off
// count, worst latency), checking every completed job's checksum on
// the way.
func burstScore(t *testing.T, results []Result, spin int32) (met, handoffs int, maxLat cell.Clock) {
	t.Helper()
	for _, r := range results {
		if r.Res.DeadlineMet {
			met++
		}
		handoffs += r.Handoffs
		if lat := r.Res.CompletedAt - r.Res.AdmittedAt; lat > maxLat {
			maxLat = lat
		}
		if r.Res.HasValue && int32(uint32(r.Res.Value)) != spin {
			t.Errorf("job %d checksum = %d, want %d (hand-offs corrupt results)",
				r.Seq, int32(uint32(r.Res.Value)), spin)
		}
	}
	return met, handoffs, maxLat
}

// TestHandoffImprovesGoodput is the tentpole's acceptance scenario: on
// the imbalanced two-shard fleet, a simultaneous deadline burst with
// hand-off enabled must fire hand-offs, keep every checksum intact,
// and strictly improve both goodput (deadlines met) and worst-case
// latency over the identical run without hand-off.
func TestHandoffImprovesGoodput(t *testing.T) {
	const spin, jobs, deadline = 120_000, 16, 4_000_000
	cfgOff := Config{EpochStride: 500_000}
	cfgOn := Config{EpochStride: 500_000, Handoff: true}

	off := playBurst(t, bootImbalanced(t, cfgOff, spin), jobs, deadline)
	on := playBurst(t, bootImbalanced(t, cfgOn, spin), jobs, deadline)

	metOff, handOff, latOff := burstScore(t, off, spin)
	metOn, handOn, latOn := burstScore(t, on, spin)
	t.Logf("off: met=%d/%d maxLat=%d; on: met=%d/%d maxLat=%d handoffs=%d",
		metOff, jobs, latOff, metOn, jobs, latOn, handOn)

	if handOff != 0 {
		t.Errorf("hand-offs fired with Handoff disabled: %d", handOff)
	}
	if handOn == 0 {
		t.Fatal("no hand-offs fired on the imbalanced fleet")
	}
	if metOn <= metOff {
		t.Errorf("goodput did not improve: %d met with hand-off vs %d without", metOn, metOff)
	}
	if latOn >= latOff {
		t.Errorf("worst latency did not improve: %d with hand-off vs %d without", latOn, latOff)
	}
}

// TestHandoffCountersConsistent checks the accounting: per-shard
// in/out totals and per-job hand-off counts describe the same moves.
func TestHandoffCountersConsistent(t *testing.T) {
	c := bootImbalanced(t, Config{EpochStride: 500_000, Handoff: true}, 120_000)
	results := playBurst(t, c, 16, 4_000_000)
	_, perJob, _ := burstScore(t, results, 120_000)
	in, out := 0, 0
	for _, s := range c.Shards() {
		in += s.HandoffsIn
		out += s.HandoffsOut
	}
	if in != out || in != perJob {
		t.Errorf("hand-off accounting inconsistent: in=%d out=%d per-job=%d", in, out, perJob)
	}
	if c.Shards()[0].HandoffsIn != 0 {
		t.Errorf("weak shard imported %d jobs; moves must flow weak→strong here",
			c.Shards()[0].HandoffsIn)
	}
}

// TestHandoffReplayIdentical is the determinism contract extended to
// hand-off: the same burst against the same fleet yields byte-identical
// reports across replays, serial vs parallel shard advancement, and
// GOMAXPROCS settings — freezing, transfer and rehydration are all part
// of the deterministic schedule.
func TestHandoffReplayIdentical(t *testing.T) {
	run := func(serial bool) string {
		c := bootImbalanced(t, Config{EpochStride: 500_000, Handoff: true, Serial: serial}, 120_000)
		playBurst(t, c, 16, 4_000_000)
		report, err := c.Report()
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	first := run(false)
	if again := run(false); again != first {
		t.Fatalf("hand-off replay diverged:\n--- first ---\n%s--- again ---\n%s", first, again)
	}
	if serial := run(true); serial != first {
		t.Fatalf("serial hand-off run diverged:\n--- parallel ---\n%s--- serial ---\n%s", first, serial)
	}
	prev := runtime.GOMAXPROCS(1)
	pinned := run(false)
	runtime.GOMAXPROCS(prev)
	if pinned != first {
		t.Fatalf("GOMAXPROCS=1 hand-off run diverged:\n--- wide ---\n%s--- pinned ---\n%s", first, pinned)
	}
}

// TestHandoffOffByDefault: the default configuration never moves jobs,
// so existing cluster behavior is unchanged.
func TestHandoffOffByDefault(t *testing.T) {
	c := bootImbalanced(t, Config{EpochStride: 500_000}, 120_000)
	results := playBurst(t, c, 8, 4_000_000)
	for _, r := range results {
		if r.Handoffs != 0 {
			t.Fatalf("job %d was handed off with Handoff disabled", r.Seq)
		}
	}
}

// TestServiceFloorSkipsShardShedJobs: a job its shard sheds is done at
// admission with zero cycles, but it never ran, so it measures no
// service time. With shard-level shedding under a non-shedding
// dispatcher, the hand-off's service floor must still be the fastest
// job that actually ran, not 0.
func TestServiceFloorSkipsShardShedJobs(t *testing.T) {
	c := bootFleet(t, Config{Handoff: true}, 2, 120_000, func(cfg *vm.Config) {
		cfg.Admission = vm.AdmissionConfig{Shed: true}
	})
	shed, verdict, err := c.Submit(vm.JobSpec{Class: "Work", Method: "main", Deadline: 1})
	if err != nil {
		t.Fatal(err)
	}
	if verdict != vm.VerdictShed || shed.Shard < 0 || shed.Inner == nil {
		t.Fatalf("impossible deadline: verdict %v on shard %d, want shed by its shard", verdict, shed.Shard)
	}
	if _, _, err := c.Submit(vm.JobSpec{Class: "Work", Method: "main"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	floor, ok := c.serviceFloor()
	if !ok || floor == 0 {
		t.Errorf("service floor = %d (found %v), want the completed job's latency", floor, ok)
	}
}
