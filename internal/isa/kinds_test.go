package isa

import (
	"strings"
	"testing"
)

// The numeric kind values are load-bearing: topology order, scheduler
// tie-breaks and the memory-layout carve order all follow table order.
// Lock it down.
func TestKindValuesStable(t *testing.T) {
	if PPE != 0 || SPE != 1 || VPU != 2 {
		t.Fatalf("kind values: PPE=%d SPE=%d VPU=%d, want 0/1/2", PPE, SPE, VPU)
	}
	if NumKinds != 3 {
		t.Fatalf("NumKinds = %d, want 3", NumKinds)
	}
	kinds := CoreKinds()
	for i, k := range kinds {
		if int(k) != i {
			t.Errorf("CoreKinds()[%d] = %d, want %d", i, k, i)
		}
	}
}

func TestKindString(t *testing.T) {
	cases := map[CoreKind]string{PPE: "PPE", SPE: "SPE", VPU: "VPU"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	// Out-of-range values must render via the fallback, not
	// masquerade as a real kind.
	if got := CoreKind(200).String(); got != "kind(200)" {
		t.Errorf("unknown kind String() = %q, want %q", got, "kind(200)")
	}
	if CoreKind(200).Known() {
		t.Error("kind 200 reports Known()")
	}
}

func TestParseCoreKind(t *testing.T) {
	for _, s := range []string{"ppe", "PPE", "Spe", "vpu", "VPU"} {
		k, err := ParseCoreKind(s)
		if err != nil {
			t.Errorf("ParseCoreKind(%q): %v", s, err)
		}
		if !strings.EqualFold(k.String(), s) {
			t.Errorf("ParseCoreKind(%q) = %v", s, k)
		}
	}
	for _, s := range []string{"", "gpu", "ppe ", "spe2"} {
		if _, err := ParseCoreKind(s); err == nil {
			t.Errorf("ParseCoreKind(%q) should fail", s)
		}
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestKindCapabilities(t *testing.T) {
	if !PPE.HostsServices() || PPE.UsesLocalStore() || !PPE.PredictsBranches() {
		t.Error("PPE capabilities wrong: want services + hardware caches + predictor")
	}
	for _, k := range []CoreKind{SPE, VPU} {
		if k.HostsServices() || !k.UsesLocalStore() || k.PredictsBranches() {
			t.Errorf("%v capabilities wrong: want local store, no services, no predictor", k)
		}
	}
	// Unknown kinds have no capabilities at all, and the score queries
	// fail with spec's descriptive panic, not a raw index error.
	if CoreKind(250).HostsServices() || CoreKind(250).UsesLocalStore() || CoreKind(250).PredictsBranches() {
		t.Error("unknown kind claims capabilities")
	}
	mustPanic(t, "FPScore on unknown kind", func() { CoreKind(250).FPScore() })
	mustPanic(t, "MemScore on unknown kind", func() { CoreKind(250).MemScore() })
	mustPanic(t, "CodePressure on unknown kind", func() { CoreKind(250).CodePressure() })
}

// The predicted-cost scores drive placement: FP work must rank
// VPU < SPE < PPE, memory work must rank the PPE cheapest, and code
// pressure must rank PPE < SPE < VPU (what the paper's Figure 7 and the
// VPU's wide encoding imply).
func TestKindScoresOrdered(t *testing.T) {
	if !(VPU.FPScore() < SPE.FPScore() && SPE.FPScore() < PPE.FPScore()) {
		t.Errorf("FPScore order: VPU=%.2f SPE=%.2f PPE=%.2f, want VPU < SPE < PPE",
			VPU.FPScore(), SPE.FPScore(), PPE.FPScore())
	}
	if !(PPE.MemScore() < SPE.MemScore() && PPE.MemScore() < VPU.MemScore()) {
		t.Errorf("MemScore order: PPE=%.2f SPE=%.2f VPU=%.2f, want PPE cheapest",
			PPE.MemScore(), SPE.MemScore(), VPU.MemScore())
	}
	if !(PPE.CodePressure() < SPE.CodePressure() && SPE.CodePressure() < VPU.CodePressure()) {
		t.Errorf("CodePressure order: PPE=%.2f SPE=%.2f VPU=%.2f, want PPE < SPE < VPU",
			PPE.CodePressure(), SPE.CodePressure(), VPU.CodePressure())
	}
}

// Costs must hand each caller a fresh table: compilers calibrate their
// own copies and must not bleed into the cached scores.
func TestCostsReturnsFreshTables(t *testing.T) {
	a, b := Costs(VPU), Costs(VPU)
	if a == b {
		t.Fatal("Costs returned a shared table")
	}
	before := VPU.FPScore()
	a.OpCost[OpAddF] = 999
	if VPU.FPScore() != before {
		t.Error("mutating a Costs() result changed the cached score")
	}
}

// TestMigrateAffinity: the built-in Cell kinds are neutral migration
// targets (unset spec -> 1.0) while the VPU is priced as reluctant —
// the knob the cross-kind migration gate scales predicted cost by.
func TestMigrateAffinity(t *testing.T) {
	if got := PPE.MigrateAffinity(); got != 1 {
		t.Errorf("PPE affinity = %v, want the neutral 1", got)
	}
	if got := SPE.MigrateAffinity(); got != 1 {
		t.Errorf("SPE affinity = %v, want the neutral 1", got)
	}
	if got := VPU.MigrateAffinity(); got <= 1 {
		t.Errorf("VPU affinity = %v, want > 1 (reluctant target)", got)
	}
}

// TestSPMDWidth: scalar kinds normalize to width 1; the VPU advertises
// its wide lanes to the kernel launch planner.
func TestSPMDWidth(t *testing.T) {
	if got := PPE.SPMDWidth(); got != 1 {
		t.Errorf("PPE SPMD width = %d, want 1", got)
	}
	if got := SPE.SPMDWidth(); got != 1 {
		t.Errorf("SPE SPMD width = %d, want 1", got)
	}
	if got := VPU.SPMDWidth(); got <= 1 {
		t.Errorf("VPU SPMD width = %d, want > 1", got)
	}
}
