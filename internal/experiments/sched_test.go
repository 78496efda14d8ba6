package experiments

import (
	"testing"

	"herajvm/internal/cell"
)

// replayTwice runs every paper workload at tiny scale on each topology
// twice and demands valid checksums and bit-for-bit identical replays:
// the same cycles, steals, migrations and instruction counts.
func replayTwice(t *testing.T, topos ...string) {
	t.Helper()
	var arms []arm
	for _, ts := range topos {
		topo, err := cell.ParseTopology(ts)
		if err != nil {
			t.Fatal(err)
		}
		arms = append(arms, on(ts, topo, 0))
	}
	run := func() [][]RunStats {
		runs, err := grid(tiny(), "test", tiny().benches(), arms)
		if err != nil {
			t.Fatal(err)
		}
		return runs
	}
	firsts, seconds := run(), run()
	for w := range firsts {
		for i, ts := range topos {
			a, b := firsts[w][i], seconds[w][i]
			if !a.Valid {
				t.Errorf("%s on %s: invalid checksum", a.Workload, ts)
			}
			if a.Cycles != b.Cycles || a.Checksum != b.Checksum ||
				a.All.StealsIn != b.All.StealsIn || a.All.MigrationsIn != b.All.MigrationsIn ||
				a.Accel.Instrs != b.Accel.Instrs || a.All.Instrs != b.All.Instrs {
				t.Errorf("%s on %s: replays diverged: cycles %d/%d steals %d/%d migrations %d/%d instrs %d(%d)/%d(%d)",
					a.Workload, ts, a.Cycles, b.Cycles, a.All.StealsIn, b.All.StealsIn,
					a.All.MigrationsIn, b.All.MigrationsIn,
					a.All.Instrs, a.Accel.Instrs, b.All.Instrs, b.Accel.Instrs)
			}
		}
	}
}

// TestStealSchedulerChecksumsAndDeterminism: on the PS3 shape and the
// three-kind machine, where same-kind siblings can steal, every
// workload keeps its checksum and replays bit for bit.
func TestStealSchedulerChecksumsAndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload replay skipped in -short mode")
	}
	replayTwice(t, "ppe:1,spe:6", "ppe:1,spe:4,vpu:2")
}

// TestMigrateSchedulerChecksumsAndDeterminism: on two three-kind
// machines, where the cost gate can move threads across kinds, every
// workload keeps its checksum and replays bit for bit, migrations
// included.
func TestMigrateSchedulerChecksumsAndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload replay skipped in -short mode")
	}
	replayTwice(t, "ppe:1,spe:4,vpu:2", "ppe:2,spe:2,vpu:2")
}

// TestTopologySweepHonoursOptionTopologies pins the topo sweep to a
// custom shape list.
func TestTopologySweepHonoursOptionTopologies(t *testing.T) {
	opt := tiny()
	list, err := cell.ParseTopologyList("ppe:1;ppe:1,spe:2")
	if err != nil {
		t.Fatal(err)
	}
	opt.Topologies = list
	sweep, err := RunTopologySweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Topologies) != 2 {
		t.Fatalf("sweep visited %d topologies, want the 2 configured", len(sweep.Topologies))
	}
	for _, r := range sweep.Rows {
		if !r.Valid {
			t.Errorf("%s: invalid checksum", r.Workload)
		}
		if len(r.Cycles) != 2 {
			t.Errorf("%s: %d cycle columns, want 2", r.Workload, len(r.Cycles))
		}
	}
}
