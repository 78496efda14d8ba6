package vm

import (
	"testing"

	"herajvm/internal/isa"
)

// churnMigrations submits four staggered compute-bound jobs (see
// migrate_test.go's worker program) to one booted VM on the three-kind
// single-core-per-kind machine — the oscillating
// load shape: each arriving job re-floods the SPE while earlier jobs
// drain, so the imbalance keeps reversing. It returns the largest
// per-thread migration count and how many threads migrated more than
// once.
func churnMigrations(t *testing.T, cooldown uint64) (most uint64, multi int) {
	t.Helper()
	cfg := threeKindConfig()
	cfg.MigrateCooldownCycles = cooldown
	vm, err := New(cfg, buildComputeWorkers(6, 2000))
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		if _, _, err := vm.Submit(JobSpec{Class: "Main", Method: "main", Arrival: uint64(j) * 500_000}); err != nil {
			t.Fatal(err)
		}
	}
	if err := vm.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, job := range vm.Jobs() {
		if job.Err() != nil {
			t.Fatal(job.Err())
		}
	}
	for _, th := range vm.threads {
		if th.Migrations > most {
			most = th.Migrations
		}
		if th.Migrations >= 2 {
			multi++
		}
	}
	return most, multi
}

// TestMigrateCooldownStopsPingPong: under oscillating load, threads
// are migrated cross-kind repeatedly when no hysteresis guards them.
// The cooldown bounds that churn: with a cooldown longer than the run,
// no thread is ever re-migrated.
func TestMigrateCooldownStopsPingPong(t *testing.T) {
	mostFree, multiFree := churnMigrations(t, 0)
	if mostFree < 2 || multiFree == 0 {
		t.Fatalf("scenario does not oscillate: max per-thread migrations without cooldown = %d (%d threads >= 2)",
			mostFree, multiFree)
	}
	mostGuard, multiGuard := churnMigrations(t, 1<<40)
	if mostGuard > 1 || multiGuard != 0 {
		t.Errorf("with an unbounded cooldown a thread migrated %d times (%d threads >= 2), want at most once",
			mostGuard, multiGuard)
	}
}

// TestMigrateCooldownVetoWindow exercises the veto directly: a thread
// that just migrated is not migratable again until its core's clock
// passes the cooldown horizon.
func TestMigrateCooldownVetoWindow(t *testing.T) {
	cfg := threeKindConfig()
	cfg.MigrateCooldownCycles = 5000
	vm, err := New(cfg, newProg())
	if err != nil {
		t.Fatal(err)
	}
	spe := vm.Machine.CoreAt(isa.SPE, 0)
	ppe := vm.Machine.CoreAt(isa.PPE, 0)

	th := vm.newThread(&Job{}, "w")
	th.Kind, th.CoreID = isa.SPE, 0
	if _, ok := vm.recompileEstimate(th, ppe); !ok {
		t.Fatal("a fresh thread must be migratable")
	}
	at, ok := vm.onMigrate(th, spe, ppe, 100)
	if !ok {
		t.Fatal("migration hook vetoed an empty-stack thread")
	}
	if _, ok := vm.recompileEstimate(th, spe); ok {
		t.Error("thread re-migratable immediately after a migration")
	}
	ppe.Now = at + cfg.MigrateCooldownCycles + 1
	if _, ok := vm.recompileEstimate(th, spe); !ok {
		t.Error("thread still vetoed after its core clock passed the cooldown")
	}
}
