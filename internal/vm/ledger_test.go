package vm

import (
	"testing"

	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

func TestMethodCountersShares(t *testing.T) {
	var m methodCounters
	if m.FPShare() != 0 || m.MemShare() != 0 {
		t.Error("empty counters should have zero shares")
	}
	m.Cycles[isa.ClassFloat] = 60
	m.Cycles[isa.ClassMainMem] = 30
	m.Cycles[isa.ClassInt] = 10
	if m.Busy() != 100 {
		t.Errorf("Busy: %d", m.Busy())
	}
	if m.FPShare() != 0.6 {
		t.Errorf("FPShare: %f", m.FPShare())
	}
	if m.MemShare() != 0.3 {
		t.Errorf("MemShare: %f", m.MemShare())
	}
}

func TestLedgerHottest(t *testing.T) {
	l := make(ledger, 8)
	for id, busy := range map[int]uint64{1: 100, 2: 300, 3: 200} {
		l[id] = &methodCounters{}
		l[id].Cycles[isa.ClassInt] = busy
	}
	hot := l.hottest(2)
	if len(hot) != 2 || hot[0] != 2 || hot[1] != 3 {
		t.Errorf("hottest: %v", hot)
	}
	if len(l.hottest(10)) != 3 {
		t.Error("hottest should cap at the methods invoked")
	}
	// Deterministic tie-break by ID, over every class.
	l[4] = &methodCounters{}
	l[4].Cycles[isa.ClassInt], l[4].Cycles[isa.ClassFloat] = 100, 200
	if hot = l.hottest(2); hot[0] != 2 || hot[1] != 4 {
		t.Errorf("tie-break: %v", hot)
	}
}

// TestProfileFrameSharesCounters: every frame of one method bills the
// same counters, allocated at the method's first invoke, and each
// profiled frame counts one invoke.
func TestProfileFrameSharesCounters(t *testing.T) {
	v, err := New(testConfig(), newProg())
	if err != nil {
		t.Fatal(err)
	}
	m := v.Prog.Lookup("java/lang/Object").MethodByName("equals")
	if v.ledger[m.ID] != nil {
		t.Fatal("a method never invoked has counters")
	}
	cm, _, err := v.compileFor(isa.PPE, m)
	if err != nil {
		t.Fatal(err)
	}
	a, b := newFrame(cm), newFrame(cm)
	v.profileFrame(a)
	v.profileFrame(b)
	if a.ctr == nil || a.ctr != b.ctr || a.ctr != v.ledger[m.ID] {
		t.Error("two frames of one method should share its counters")
	}
	if a.ctr.Invokes != 2 {
		t.Errorf("Invokes = %d after two profiled frames, want 2", a.ctr.Invokes)
	}
}

// volatileStoreProg's Pub.set stores a plain static, then flag, which
// is volatile when volatile is set; main calls it once.
func volatileStoreProg(volatile bool) *classfile.Program {
	p := newProg()
	pub := p.NewClass("Pub", nil)
	data := pub.NewStaticField("data", classfile.Int)
	newField := pub.NewStaticField
	if volatile {
		newField = pub.NewVolatileStaticField
	}
	flag := newField("flag", classfile.Int)
	set := pub.NewMethod("set", classfile.FlagStatic, classfile.Void)
	{
		a := set.Asm()
		a.ConstI(7)
		a.PutStatic(data)
		a.ConstI(1)
		a.PutStatic(flag)
		a.RetVoid()
		a.MustBuild()
	}
	m := pub.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	a.InvokeStatic(set)
	a.GetStatic(data)
	a.Ret()
	a.MustBuild()
	return p
}

// TestVolatileStoreBillsReleaseToCore: a volatile store's release flush
// is a barrier, billed to the core alone, like a volatile load's
// acquire and every other barrier. On an SPE the storing method's
// ledger counters are the same whether its last store is volatile or
// not. (The core's totals match too: without the release, the thread's
// exit writes the same two entries back.)
func TestVolatileStoreBillsReleaseToCore(t *testing.T) {
	run := func(volatile bool) *methodCounters {
		cfg := testConfig()
		cfg.Policy = FixedPolicy{Kind: isa.SPE}
		p := volatileStoreProg(volatile)
		v, th := runMain(t, cfg, p, "Pub", "main")
		if got := int32(uint32(th.Result)); got != 7 {
			t.Fatalf("volatile=%v: main returned %d, want 7", volatile, got)
		}
		if n, want := v.edgeCrossings[edgeVolatile], map[bool]uint64{false: 0, true: 1}[volatile]; n != want {
			t.Fatalf("volatile=%v: %d volatile edges crossed, want %d", volatile, n, want)
		}
		return v.ledger[p.Lookup("Pub").MethodByName("set").ID]
	}
	if vol, plain := run(true), run(false); *vol != *plain {
		t.Errorf("set's counters with a volatile store %+v, with a plain one %+v: the release was billed to the method", *vol, *plain)
	}
}
