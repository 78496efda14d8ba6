package cell

import (
	"strings"
	"testing"

	"herajvm/internal/isa"
)

func TestParseTopologyErrorPaths(t *testing.T) {
	bad := []string{
		"",                // empty
		",,",              // only separators
		"gpu:2",           // unregistered kind name
		"ppe:one",         // non-numeric count
		"ppe:",            // empty count
		"spe:4",           // no service-hosting core
		"vpu:2",           // accelerator-only machine
		"ppe:-1,spe:2",    // negative count
		"ppe:0,spe:0",     // zero cores
		"ppe:1,spe:4,foo", // trailing unknown kind
	}
	for _, s := range bad {
		if topo, err := ParseTopology(s); err == nil {
			t.Errorf("ParseTopology(%q) = %v, want error", s, topo)
		}
	}
}

func TestParseTopologyThreeKinds(t *testing.T) {
	topo, err := ParseTopology("ppe:1,spe:4,vpu:2")
	if err != nil {
		t.Fatal(err)
	}
	want := Topology{
		{Kind: isa.PPE, Count: 1},
		{Kind: isa.SPE, Count: 4},
		{Kind: isa.VPU, Count: 2},
	}
	if len(topo) != len(want) {
		t.Fatalf("ParseTopology groups = %v", topo)
	}
	for i := range want {
		if topo[i] != want[i] {
			t.Errorf("group %d = %v, want %v", i, topo[i], want[i])
		}
	}
	if topo.String() != "ppe:1,spe:4,vpu:2" {
		t.Errorf("String() = %q does not round-trip", topo.String())
	}
	if topo.Describe() != "1 PPE + 4 SPEs + 2 VPUs" {
		t.Errorf("Describe() = %q", topo.Describe())
	}
	// Workers follow accelerator cores: 4 SPEs + 2 VPUs.
	if topo.DefaultWorkers() != 6 {
		t.Errorf("DefaultWorkers() = %d, want 6", topo.DefaultWorkers())
	}
}

// A machine with all three kinds must give every core the hardware its
// kind's spec declares: scratchpad + MFC for local-store kinds, cache
// hierarchy + predictor for the PPE.
func TestThreeKindMachineConstruction(t *testing.T) {
	cfg := DefaultConfig()
	topo, err := ParseTopology("ppe:1,spe:4,vpu:2")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topology = topo
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCores() != 7 || len(m.ofKind(isa.PPE)) != 1 || len(m.ofKind(isa.SPE)) != 4 || len(m.ofKind(isa.VPU)) != 2 {
		t.Fatalf("core counts: %d total, %d/%d/%d", m.NumCores(),
			len(m.ofKind(isa.PPE)), len(m.ofKind(isa.SPE)), len(m.ofKind(isa.VPU)))
	}
	ppe := m.CoresOf(isa.PPE)[0]
	if ppe.Mem == nil || ppe.BP == nil || ppe.LS != nil || ppe.MFC != nil {
		t.Error("PPE core must have hardware caches + predictor, no local store")
	}
	for _, kind := range []isa.CoreKind{isa.SPE, isa.VPU} {
		for _, c := range m.CoresOf(kind) {
			if c.MFC == nil || c.MFC.LocalStoreSize() != cfg.LocalStore {
				t.Errorf("%s must have a local store and MFC", c)
			}
			if c.Mem != nil || c.BP != nil {
				t.Errorf("%s must not have hardware caches or a predictor", c)
			}
		}
	}
	if got := m.CoresOf(isa.VPU)[1].String(); got != "VPU1" {
		t.Errorf("VPU core name = %q", got)
	}
	if !strings.Contains(m.Describe(), "VPU") {
		t.Errorf("Describe() = %q omits the VPU", m.Describe())
	}
	// Global indices follow topology order across all kinds.
	wantIdx := 0
	for _, c := range m.Cores() {
		if c.Index != wantIdx {
			t.Errorf("core %s has index %d, want %d", c, c.Index, wantIdx)
		}
		wantIdx++
	}
}

func TestMachineRejectsUnregisteredKind(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = Topology{{Kind: isa.PPE, Count: 1}, {Kind: isa.CoreKind(200), Count: 1}}
	if _, err := NewMachine(cfg); err == nil {
		t.Error("topology with an unregistered kind should fail to boot")
	}
}
