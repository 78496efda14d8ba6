package profile

import (
	"strings"
	"testing"

	"herajvm/internal/isa"
)

func TestCoreStatsChargeAndBusy(t *testing.T) {
	var s CoreStats
	if s.ClassShares() != [isa.NumClasses]float64{} {
		t.Errorf("an idle core's shares: %v", s.ClassShares())
	}
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
