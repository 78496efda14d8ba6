package vm

import (
	"math"
	"strings"
	"testing"

	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// d2l is the JVM's d2l as the one evaluator defines it; the double
// programs of differential_test.go end in it.
func d2l(v float64) int64 {
	w, _ := isa.Eval(isa.OpD2L, math.Float64bits(v), 0, 0)
	return int64(w)
}

// hotLoopProg builds a tight arithmetic loop whose body is one long pure
// run — the shape the superblock fast path exists for.
func hotLoopProg() *classfile.Program {
	p := newProg()
	c := p.NewClass("Hot", nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	loop, done := a.NewLabel(), a.NewLabel()
	a.ConstI(0)
	a.StoreI(0) // i
	a.ConstI(1)
	a.StoreI(1) // acc
	a.Bind(loop)
	a.LoadI(0)
	a.ConstI(5000)
	a.IfICmpGE(done)
	a.LoadI(1)
	a.ConstI(31)
	a.MulI()
	a.LoadI(0)
	a.AddI()
	a.ConstI(7)
	a.DivI() // guarded: constant divisor inside the block
	a.LoadI(1)
	a.XorI()
	a.StoreI(1)
	a.Inc(0, 1)
	a.Goto(loop)
	a.Bind(done)
	a.LoadI(1)
	a.Ret()
	a.MustBuild()

	// shuffle is the same loop shape with Swap/DupX1/DupX2 in the body.
	// Those are not pure ops: each ends a run, the interpreter steps it,
	// and the next run's suffixes consume operands pushed before their
	// entry — the route an unlowerable suffix takes.
	m = c.NewMethod("shuffle", classfile.FlagStatic, classfile.Int)
	a = m.Asm()
	loop, done = a.NewLabel(), a.NewLabel()
	a.ConstI(0)
	a.StoreI(0) // i
	a.ConstI(1)
	a.StoreI(1) // acc
	a.Bind(loop)
	a.LoadI(0)
	a.ConstI(3000)
	a.IfICmpGE(done)
	a.LoadI(1)
	a.LoadI(0)
	a.Swap() // i acc
	a.SubI()
	a.LoadI(0)
	a.DupX1() // i (i-acc) i
	a.MulI()
	a.AddI()
	a.ConstI(3)
	a.LoadI(1)
	a.DupX2() // acc v 3 acc
	a.AddI()
	a.XorI()
	a.AddI()
	a.StoreI(1)
	a.Inc(0, 1)
	a.Goto(loop)
	a.Bind(done)
	a.LoadI(1)
	a.Ret()
	a.MustBuild()
	return p
}

// TestFastPathMatchesDisabled runs the same hot loops with superblocks on
// (the default) and off, and requires identical simulated results: return
// value, final clocks, per-class cycle counters and retired instruction
// counts. Only the fast-forward counters may differ — they record which
// path did the work, not how much work was done.
func TestFastPathMatchesDisabled(t *testing.T) {
	for _, method := range []string{"main", "shuffle"} {
		t.Run(method, func(t *testing.T) { fastPathMatchesDisabled(t, method) })
	}
}

func fastPathMatchesDisabled(t *testing.T, method string) {
	run := func(disable bool) (*VM, uint64) {
		cfg := testConfig()
		cfg.DisableSuperblocks = disable
		vmach, err := New(cfg, hotLoopProg())
		if err != nil {
			t.Fatal(err)
		}
		th, err := vmach.RunMain("Hot", method)
		if err != nil {
			t.Fatal(err)
		}
		if !th.HasResult {
			t.Fatal("no result")
		}
		return vmach, th.Result
	}
	fast, fres := run(false)
	slow, sres := run(true)
	if fres != sres {
		t.Errorf("result: fast=%d slow=%d", fres, sres)
	}

	if f, s := fast.Machine.MaxClock(), slow.Machine.MaxClock(); f != s {
		t.Errorf("MaxClock: fast=%d slow=%d", f, s)
	}
	var ffBlocks, ffInstrs uint64
	fcores, scores := fast.Machine.Cores(), slow.Machine.Cores()
	for i := range fcores {
		fs, ss := &fcores[i].Stats, &scores[i].Stats
		if fs.Cycles != ss.Cycles {
			t.Errorf("core %d: Cycles fast=%v slow=%v", i, fs.Cycles, ss.Cycles)
		}
		if fs.Instrs != ss.Instrs || fs.Idle != ss.Idle {
			t.Errorf("core %d: instrs/idle fast=%d/%d slow=%d/%d",
				i, fs.Instrs, fs.Idle, ss.Instrs, ss.Idle)
		}
		ffBlocks += fs.FastForwardedBlocks
		ffInstrs += fs.FastForwardedInstrs
		if ss.FastForwardedBlocks != 0 || ss.FastForwardedInstrs != 0 {
			t.Errorf("core %d: disabled run fast-forwarded %d blocks", i, ss.FastForwardedBlocks)
		}
	}
	if ffBlocks == 0 || ffInstrs == 0 {
		t.Errorf("fast run never took the fast path (blocks=%d instrs=%d)", ffBlocks, ffInstrs)
	}
}

// TestMarkerFrameWithoutCallerTraps is the regression test for the
// malformed-migration livelock: a thread whose only frame is a migration
// marker must trap (markers are always pushed beneath a callee), not spin
// in execute without charging a cycle.
func TestMarkerFrameWithoutCallerTraps(t *testing.T) {
	vmach, err := New(testConfig(), newProg())
	if err != nil {
		t.Fatal(err)
	}
	core := vmach.Machine.Cores()[0]
	th := &Thread{
		ID:     99,
		Name:   "malformed",
		State:  StateRunning,
		Frames: []*Frame{{Marker: true}},
	}
	before := core.Now
	vmach.execute(core, th, 1000)
	if th.State != StateTerminated {
		t.Fatalf("thread state %v, want terminated (execute must not spin)", th.State)
	}
	if th.Trap == nil || !strings.Contains(th.Trap.Error(), "migration marker") {
		t.Fatalf("trap = %v, want migration-marker InternalError", th.Trap)
	}
	if core.Now != before {
		t.Errorf("trap should not charge cycles (now %d -> %d)", before, core.Now)
	}
}
