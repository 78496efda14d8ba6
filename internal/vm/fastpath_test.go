package vm

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"herajvm/internal/cell"
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
	// and the next run's head consumes operands pushed before its entry —
	// the route an unlowerable suffix takes.
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
		th, err := runEntry(vmach, "Hot", method)
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

// boundaryProg builds the loops the boundary-exit test replays: method
// loopK runs eight iterations of a body that is one superblock absorbing
// three int-array loads. In loop1..loop3 the K-th load indexes by the
// loop counter, so it throws ArrayIndexOutOfBoundsException on the
// fifth iteration (the array holds four); in loop0 every index is a
// constant in bounds.
func boundaryProg() *classfile.Program {
	p := newProg()
	c := p.NewClass("Bounds", nil)
	for k := 0; k <= 3; k++ {
		m := c.NewMethod(fmt.Sprintf("loop%d", k), classfile.FlagStatic, classfile.Int)
		a := m.Asm()
		loop, done := a.NewLabel(), a.NewLabel()
		a.ConstI(4).NewArray(classfile.ElemInt).StoreRef(0) // arr
		for j, v := range []int32{3, 5, 7, 11} {
			a.LoadRef(0).ConstI(int32(j)).ConstI(v).AStore(classfile.ElemInt)
		}
		a.ConstI(0).StoreI(1) // i
		a.ConstI(1).StoreI(2) // acc
		a.Bind(loop)
		a.LoadI(1).ConstI(8).IfICmpGE(done)
		load := func(j int) {
			a.LoadRef(0)
			if j == k {
				a.LoadI(1)
			} else {
				a.ConstI(int32(j))
			}
			a.ALoad(classfile.ElemInt)
		}
		a.LoadI(2)
		load(1)
		a.AddI().ConstI(3).MulI()
		load(2)
		a.XorI()
		load(3)
		a.AddI().StoreI(2)
		a.Inc(1, 1)
		a.Goto(loop)
		a.Bind(done)
		a.LoadI(2).Ret()
		a.MustBuild()
	}
	return p
}

// boundaryRun is one machine running a Bounds loop on an SPE, driven
// quantum by quantum without the scheduler so the test picks each
// deadline. f is the loop's frame, still readable after a trap unwinds
// it (an unwound frame is recycled, not cleared).
type boundaryRun struct {
	vm   *VM
	core *cell.Core
	t    *Thread
	f    *Frame
}

func startBoundaryRun(t *testing.T, method string, disable bool) *boundaryRun {
	t.Helper()
	cfg := testConfig()
	cfg.Policy = FixedPolicy{Kind: isa.SPE}
	cfg.DisableSuperblocks = disable
	v, err := New(cfg, boundaryProg())
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := v.Submit(JobSpec{Name: method, Class: "Bounds", Method: method})
	if err != nil {
		t.Fatal(err)
	}
	th := j.Root()
	core := v.coreFor(th.Kind, th.CoreID)
	core.AdvanceTo(th.ReadyAt)
	th.State = StateRunning
	v.curJob = th.job
	th.needEnsure = false
	v.ensureTopFrame(core, th)
	return &boundaryRun{v, core, th, th.top()}
}

// diff names the first observable difference between a fast run and
// its stepped twin: core stats (all but the fast-forward counters), the
// clock, the method's ledger counters, the frame's PC, SP, live stack
// and locals, and the thread's state and trap.
func (r *boundaryRun) diff(o *boundaryRun) string {
	rs, os := r.core.Stats, o.core.Stats
	rs.FastForwardedBlocks, rs.FastForwardedInstrs = 0, 0
	os.FastForwardedBlocks, os.FastForwardedInstrs = 0, 0
	switch {
	case rs != os:
		return fmt.Sprintf("core stats\nfast %+v\nslow %+v", rs, os)
	case r.core.Now != o.core.Now:
		return fmt.Sprintf("clock fast=%d slow=%d", r.core.Now, o.core.Now)
	case *r.f.ctr != *o.f.ctr:
		return fmt.Sprintf("method counters fast=%+v slow=%+v", *r.f.ctr, *o.f.ctr)
	case r.f.PC != o.f.PC || r.f.SP != o.f.SP:
		return fmt.Sprintf("PC/SP fast=%d/%d slow=%d/%d", r.f.PC, r.f.SP, o.f.PC, o.f.SP)
	case !slices.Equal(r.f.Stack[:r.f.SP], o.f.Stack[:o.f.SP]) || !slices.Equal(r.f.Locals, o.f.Locals):
		return fmt.Sprintf("frame values\nfast %v %v\nslow %v %v",
			r.f.Locals, r.f.Stack[:r.f.SP], o.f.Locals, o.f.Stack[:o.f.SP])
	case r.t.State != o.t.State || fmt.Sprint(r.t.Trap) != fmt.Sprint(o.t.Trap):
		return fmt.Sprintf("thread fast=%v %v slow=%v %v", r.t.State, r.t.Trap, o.t.State, o.t.Trap)
	}
	return ""
}

// TestReplayExitsAtEveryBoundary holds the replay's early exits to
// stepping at each memory boundary of a three-load block. A trap at the
// k-th load, and a deadline that expires after the k-th load, must leave
// exactly the stepped run's counters and frame: the replay bills such a
// block's prefix from the code, up to and including that load.
func TestReplayExitsAtEveryBoundary(t *testing.T) {
	loads := func(r *boundaryRun) []int {
		var pcs []int
		for pc, in := range r.f.CM.Code {
			if in.Op == isa.OpALoad {
				pcs = append(pcs, pc)
			}
		}
		return pcs
	}
	for k := 1; k <= 3; k++ {
		t.Run(fmt.Sprintf("trap%d", k), func(t *testing.T) {
			fast := startBoundaryRun(t, fmt.Sprintf("loop%d", k), false)
			slow := startBoundaryRun(t, fmt.Sprintf("loop%d", k), true)
			fast.vm.execute(fast.core, fast.t, 1<<40)
			slow.vm.execute(slow.core, slow.t, 1<<40)
			if d := fast.diff(slow); d != "" {
				t.Fatal(d)
			}
			trap, _ := fast.t.Trap.(*TrapError)
			if trap == nil || trap.Kind != "ArrayIndexOutOfBoundsException" || trap.PC != loads(fast)[k-1] {
				t.Fatalf("trap %v, want ArrayIndexOutOfBoundsException at load %d (pc %d)", fast.t.Trap, k, loads(fast)[k-1])
			}
			if fast.core.Stats.FastForwardedBlocks == 0 {
				t.Fatal("the fast run never replayed a block")
			}
		})
	}

	// The deadline arm: both runs step, fast path off, to the body's
	// first instruction on the second iteration; then one quantum of q
	// cycles runs, the fast run's with the fast path back on, for every
	// q up to past a whole iteration, so the deadline lands after each
	// load in turn.
	t.Run("deadline", func(t *testing.T) {
		probe := startBoundaryRun(t, "loop0", false)
		pcs := loads(probe)
		entry := pcs[0] - 3 // LoadI acc; LoadRef arr; ConstI 1; ALoad
		body := probe.f.CM.Block(entry)
		if body == nil || len(body.Bounds) != 3 {
			t.Fatalf("the loop body must be one block absorbing three loads: %+v", body)
		}
		toSecondBody := func(r *boundaryRun) {
			r.vm.sbOff = true
			for n := 0; n < 2; {
				r.vm.execute(r.core, r.t, 1) // one instruction
				if r.f.PC == entry {
					n++
				}
			}
			r.vm.sbOff = r.vm.Cfg.DisableSuperblocks
		}
		exited := make([]bool, 3)
		for q := uint64(1); q < 400; q++ {
			fast := startBoundaryRun(t, "loop0", false)
			slow := startBoundaryRun(t, "loop0", true)
			toSecondBody(fast)
			toSecondBody(slow)
			ff := fast.core.Stats.FastForwardedInstrs
			fast.vm.execute(fast.core, fast.t, q)
			slow.vm.execute(slow.core, slow.t, q)
			if d := fast.diff(slow); d != "" {
				t.Fatalf("quantum %d: %s", q, d)
			}
			// A hand-back at load i fast-forwarded the block's pure
			// instructions before it, and stepping did the rest.
			for i, bd := range body.Bounds {
				if fast.core.Stats.FastForwardedInstrs-ff == uint64(int(bd.RelIdx)-i) {
					exited[i] = true
				}
			}
		}
		for i, ok := range exited {
			if !ok {
				t.Errorf("no quantum expired after load %d", i+1)
			}
		}
	})
}
