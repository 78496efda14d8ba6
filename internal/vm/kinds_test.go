package vm

import (
	"slices"
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

func threeKindTopology() cell.Topology {
	return cell.Topology{
		{Kind: isa.PPE, Count: 1},
		{Kind: isa.SPE, Count: 2},
		{Kind: isa.VPU, Count: 2},
	}
}

// The VM's tests run on the production machine's kinds: the kind table
// is fixed, so no test binary adds a kind the real runs never see.
func TestCoreKindsAreTheProductionSet(t *testing.T) {
	if got, want := isa.CoreKinds(), []isa.CoreKind{isa.PPE, isa.SPE, isa.VPU}; !slices.Equal(got, want) {
		t.Errorf("isa.CoreKinds() = %v, want %v", got, want)
	}
}

// A topology containing all three kinds must boot, schedule annotated
// workers and produce the same checksum as any other machine.
func TestThreeKindTopologyBootsAndSchedules(t *testing.T) {
	p := buildWorkerProgram(4, classfile.AnnRunOnSPE)
	vm, th := runMain(t, topoConfig(threeKindTopology()), p, "Main", "main")
	if got := int32(uint32(th.Result)); got != 1000 {
		t.Errorf("total = %d, want 1000", got)
	}
	if vm.Machine.InstrsOf(isa.SPE) == 0 {
		t.Error("RunOnSPE workers never ran on the SPEs")
	}
}

// FloatIntensive is a behavioural hint, not a kind pin: on a machine
// with a VPU the policy must place it on the VPU (the cheapest-FP
// kind). Idle SPEs may still take some of the work through the
// scheduler's cross-kind migration.
func TestFloatIntensiveRoutesToVPU(t *testing.T) {
	p := buildWorkerProgram(4, classfile.AnnFloatIntensive)
	vm, th := runMain(t, topoConfig(threeKindTopology()), p, "Main", "main")
	if got := int32(uint32(th.Result)); got != 1000 {
		t.Errorf("total = %d, want 1000", got)
	}
	if k := vm.placeKind(p.Lookup("Worker").MethodByName("run")); k != isa.VPU {
		t.Errorf("FloatIntensive workers placed on %v, want the VPU", k)
	}
	if vm.Machine.InstrsOf(isa.VPU) == 0 {
		t.Error("FloatIntensive workers never ran on the VPUs")
	}
	// On the classic PS3 shape the same program lands on the SPEs.
	vm2, _ := runMain(t, testConfig(), p, "Main", "main")
	if vm2.Machine.InstrsOf(isa.SPE) == 0 {
		t.Error("FloatIntensive workers never ran on the SPEs of a PS3 machine")
	}
}

// FixedPolicy pins threads to the VPU like any other kind. (The exact
// checksum is not asserted: pinning the main thread too means its final
// unsynchronized static read may be stale under the software-cache
// model, exactly as on a pinned SPE.)
func TestFixedPolicyOnVPU(t *testing.T) {
	cfg := topoConfig(cell.Topology{{Kind: isa.PPE, Count: 1}, {Kind: isa.VPU, Count: 2}})
	cfg.Policy = FixedPolicy{Kind: isa.VPU}
	p := buildWorkerProgram(2, "")
	vm, _ := runMain(t, cfg, p, "Main", "main")
	if vm.Machine.InstrsOf(isa.VPU) == 0 {
		t.Error("fixed-VPU policy never ran on the VPUs")
	}
	if vm.Machine.CoresOf(isa.PPE)[0].Stats.Instrs != 0 {
		t.Error("pinned threads executed bytecode on the PPE")
	}
	if vm.serviceKind() != isa.PPE {
		t.Errorf("service kind = %v, want PPE", vm.serviceKind())
	}
}

// A policy naming a kind the machine lacks must land on the service
// kind, both at thread start and at invocation time.
func TestAbsentKindFallsBackToServiceKind(t *testing.T) {
	cfg := topoConfig(cell.Topology{{Kind: isa.PPE, Count: 1}})
	cfg.Policy = FixedPolicy{Kind: isa.VPU}
	vm, th := runMain(t, cfg, buildWorkerProgram(2, ""), "Main", "main")
	if got := int32(uint32(th.Result)); got != 300 {
		t.Errorf("total = %d, want 300", got)
	}
	if vm.Machine.CoresOf(isa.PPE)[0].Stats.Instrs == 0 {
		t.Error("work did not fall back to the PPE")
	}
}

// The VM must not carve code regions or build compilers for kinds the
// topology lacks (lazy per-architecture compilation, §3.1).
func TestCompilersFollowTopology(t *testing.T) {
	vm, err := New(topoConfig(cell.Topology{{Kind: isa.PPE, Count: 1}}), newProg())
	if err != nil {
		t.Fatal(err)
	}
	if vm.Compiler(isa.PPE) == nil {
		t.Error("PPE compiler missing")
	}
	if vm.Compiler(isa.SPE) != nil || vm.Compiler(isa.VPU) != nil {
		t.Error("compilers exist for kinds the machine lacks")
	}
	vm3, err := New(topoConfig(threeKindTopology()), newProg())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []isa.CoreKind{isa.PPE, isa.SPE, isa.VPU} {
		if vm3.Compiler(k) == nil {
			t.Errorf("three-kind machine lacks a %v compiler", k)
		}
	}
}
