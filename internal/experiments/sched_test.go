package experiments

import (
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/workloads"
)

// runSched runs every paper workload at tiny scale on each topology
// under one scheduler — the arms the two acceptance tests below compare.
func runSched(t *testing.T, topos []string, scheduler string) [][]RunStats {
	t.Helper()
	var arms []arm
	for _, ts := range topos {
		topo, err := cell.ParseTopology(ts)
		if err != nil {
			t.Fatal(err)
		}
		arms = append(arms, arm{label: scheduler, topo: topo, sched: scheduler})
	}
	runs, err := grid(tiny(), "test", tiny().benches(), arms)
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// TestStealSchedulerChecksumsAndDeterminism is the steal scheduler's
// acceptance gate: on the PS3 shape and the three-kind machine, every
// workload must (a) produce the same checksum under "steal" as under
// the default calendar scheduler, and (b) be run-to-run deterministic —
// identical cycles and steal counts across two replays.
func TestStealSchedulerChecksumsAndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload replay skipped in -short mode")
	}
	topos := []string{"ppe:1,spe:6", "ppe:1,spe:4,vpu:2"}
	cals, st1s, st2s := runSched(t, topos, "calendar"), runSched(t, topos, "steal"), runSched(t, topos, "steal")
	for w := range cals {
		for i, ts := range topos {
			cal, st1, st2 := cals[w][i], st1s[w][i], st2s[w][i]
			if !cal.Valid || !st1.Valid {
				t.Errorf("%s on %s: invalid checksum (calendar=%v steal=%v)",
					cal.Workload, ts, cal.Valid, st1.Valid)
			}
			if st1.Checksum != cal.Checksum {
				t.Errorf("%s on %s: steal checksum %d != calendar %d",
					cal.Workload, ts, st1.Checksum, cal.Checksum)
			}
			if st1.Cycles != st2.Cycles || st1.All.StealsIn != st2.All.StealsIn ||
				st1.Accel.Instrs != st2.Accel.Instrs || st1.All.Instrs != st2.All.Instrs {
				t.Errorf("%s on %s: steal runs diverged: cycles %d/%d steals %d/%d instrs %d(%d)/%d(%d)",
					cal.Workload, ts, st1.Cycles, st2.Cycles, st1.All.StealsIn, st2.All.StealsIn,
					st1.All.Instrs, st1.Accel.Instrs, st2.All.Instrs, st2.Accel.Instrs)
			}
			if cal.All.StealsIn != 0 {
				t.Errorf("%s on %s: calendar scheduler stole %d times", cal.Workload, ts, cal.All.StealsIn)
			}
		}
	}
}

// TestMigrateSchedulerChecksumsAndDeterminism is the migrate
// scheduler's acceptance gate: on the satellite topology
// (ppe:1,spe:4,vpu:2) and the acceptance topology (ppe:2,spe:2,vpu:2),
// every workload must (a) produce the same checksum under "migrate" as
// under the default calendar scheduler, (b) finish no later than under
// "steal" (the cost gate only approves predicted wins), and (c) be
// run-to-run deterministic — identical cycles, steal counts and
// migration counts across two replays.
func TestMigrateSchedulerChecksumsAndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload replay skipped in -short mode")
	}
	topos := []string{"ppe:1,spe:4,vpu:2", "ppe:2,spe:2,vpu:2"}
	cals, sts := runSched(t, topos, "calendar"), runSched(t, topos, "steal")
	mig1s, mig2s := runSched(t, topos, "migrate"), runSched(t, topos, "migrate")
	for w := range cals {
		for i, ts := range topos {
			cal, st, mig1, mig2 := cals[w][i], sts[w][i], mig1s[w][i], mig2s[w][i]
			if !cal.Valid || !mig1.Valid {
				t.Errorf("%s on %s: invalid checksum (calendar=%v migrate=%v)",
					cal.Workload, ts, cal.Valid, mig1.Valid)
			}
			if mig1.Checksum != cal.Checksum {
				t.Errorf("%s on %s: migrate checksum %d != calendar %d",
					cal.Workload, ts, mig1.Checksum, cal.Checksum)
			}
			if mig1.Cycles > st.Cycles {
				t.Errorf("%s on %s: migrate (%d cyc) finished later than steal (%d cyc); the cost gate should only approve wins",
					cal.Workload, ts, mig1.Cycles, st.Cycles)
			}
			if mig1.Cycles != mig2.Cycles || mig1.All.StealsIn != mig2.All.StealsIn ||
				mig1.All.MigrationsIn != mig2.All.MigrationsIn ||
				mig1.Checksum != mig2.Checksum ||
				mig1.Accel.Instrs != mig2.Accel.Instrs || mig1.All.Instrs != mig2.All.Instrs {
				t.Errorf("%s on %s: migrate runs diverged: cycles %d/%d steals %d/%d migrations %d/%d",
					cal.Workload, ts, mig1.Cycles, mig2.Cycles, mig1.All.StealsIn, mig2.All.StealsIn,
					mig1.All.MigrationsIn, mig2.All.MigrationsIn)
			}
		}
	}
}

// runSchedSweep runs the merged ablation at tiny scale on a custom
// topology list (exercising Options.Topologies, the -topology flag's
// plumbing) and checks the row count.
func runSchedSweep(t *testing.T, topos string) *SchedSweep {
	t.Helper()
	opt := tiny()
	list, err := cell.ParseTopologyList(topos)
	if err != nil {
		t.Fatal(err)
	}
	opt.Topologies = list
	sweep, err := RunSchedSweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Rows) != len(workloads.All())*len(list) {
		t.Fatalf("rows = %d, want %d", len(sweep.Rows), len(workloads.All())*len(list))
	}
	return sweep
}

// TestStealSweepShape checks every row matched with a sane steal
// speedup.
func TestStealSweepShape(t *testing.T) {
	for _, r := range runSchedSweep(t, "ppe:1,spe:2;ppe:1,spe:1,vpu:2").Rows {
		if !r.Match {
			t.Errorf("%s on %s: schedulers disagreed", r.Workload, r.Topology)
		}
		if r.StealSpeedup <= 0 {
			t.Errorf("%s on %s: nonsense speedup %f", r.Workload, r.Topology, r.StealSpeedup)
		}
	}
}

// TestMigrateSweepShape checks every row matched and migration never
// lost to stealing.
func TestMigrateSweepShape(t *testing.T) {
	for _, r := range runSchedSweep(t, "ppe:1,spe:2,vpu:1;ppe:2,spe:2,vpu:2").Rows {
		if !r.Match {
			t.Errorf("%s on %s: schedulers disagreed", r.Workload, r.Topology)
		}
		if r.MigrateSpeedup < 1 {
			t.Errorf("%s on %s: migrate slower than steal (%.3fx); the cost gate should only approve wins",
				r.Workload, r.Topology, r.MigrateSpeedup)
		}
	}
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
