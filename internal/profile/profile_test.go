package profile

import (
	"strings"
	"testing"

	"herajvm/internal/isa"
)

func TestCoreStatsChargeAndBusy(t *testing.T) {
	var s CoreStats
	s.Charge(isa.ClassFloat, 100)
	s.Charge(isa.ClassInt, 50)
	s.Idle = 25
	if s.Busy() != 150 {
		t.Errorf("Busy: %d", s.Busy())
	}
	shares := s.ClassShares()
	if shares[isa.ClassFloat] < 0.66 || shares[isa.ClassFloat] > 0.67 {
		t.Errorf("float share: %f", shares[isa.ClassFloat])
	}
}

func TestHitRates(t *testing.T) {
	var s CoreStats
	if s.DataHitRate() != 1 || s.CodeHitRate() != 1 {
		t.Error("empty stats should report perfect hit rates")
	}
	s.DataHits, s.DataMisses = 3, 1
	if s.DataHitRate() != 0.75 {
		t.Errorf("DataHitRate: %f", s.DataHitRate())
	}
	s.CodeHits, s.CodeMisses = 1, 3
	if s.CodeHitRate() != 0.25 {
		t.Errorf("CodeHitRate: %f", s.CodeHitRate())
	}
}

func TestAddAccumulates(t *testing.T) {
	var a, b CoreStats
	a.Charge(isa.ClassBranch, 10)
	a.DataHits = 5
	a.DMABytes = 100
	b.Charge(isa.ClassBranch, 20)
	b.DataHits = 7
	b.DMABytes = 50
	a.Add(&b)
	if a.Cycles[isa.ClassBranch] != 30 || a.DataHits != 12 || a.DMABytes != 150 {
		t.Errorf("Add: %+v", a)
	}
}

func TestStringFormat(t *testing.T) {
	var s CoreStats
	s.Charge(isa.ClassInt, 42)
	if !strings.Contains(s.String(), "busy=42") {
		t.Errorf("String: %q", s.String())
	}
}

func TestMethodCountersShares(t *testing.T) {
	var m MethodCounters
	if m.FPShare() != 0 || m.MemShare() != 0 {
		t.Error("empty counters should have zero shares")
	}
	m.Cycles[isa.ClassFloat] = 60
	m.Cycles[isa.ClassMainMem] = 30
	m.Cycles[isa.ClassInt] = 10
	if m.FPShare() != 0.6 {
		t.Errorf("FPShare: %f", m.FPShare())
	}
	if m.MemShare() != 0.3 {
		t.Errorf("MemShare: %f", m.MemShare())
	}
}

func TestMonitorHottest(t *testing.T) {
	mn := NewMonitor(8)
	mn.Counters(1).Cycles[isa.ClassInt] = 100
	mn.Counters(2).Cycles[isa.ClassInt] = 300
	mn.Counters(3).Cycles[isa.ClassInt] = 200
	hot := mn.Hottest(2)
	if len(hot) != 2 || hot[0] != 2 || hot[1] != 3 {
		t.Errorf("Hottest: %v", hot)
	}
	if len(mn.Hottest(10)) != 3 {
		t.Error("Hottest should cap at available methods")
	}
	// Deterministic tie-break by ID.
	mn.Counters(4).Cycles[isa.ClassInt] = 300
	hot = mn.Hottest(2)
	if hot[0] != 2 || hot[1] != 4 {
		t.Errorf("tie-break: %v", hot)
	}
}

func TestCountersIdentity(t *testing.T) {
	mn := NewMonitor(8)
	a := mn.Counters(7)
	b := mn.Counters(7)
	if a != b {
		t.Error("Counters should return the same instance per method")
	}
}
