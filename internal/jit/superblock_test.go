package jit

import (
	"testing"

	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// sbMethod compiles a method on the SPE backend and returns its code
// and superblocks.
func sbMethod(t *testing.T, build func(a *classfile.Asm)) *CompiledMethod {
	t.Helper()
	_, spe, _ := newCompilers(t)
	p := classfile.NewProgram()
	c := p.NewClass("SB", nil)
	m := c.NewMethod("run", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	build(a)
	a.MustBuild()
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	cm, err := spe.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// discovered wraps hand-written code the way Compile leaves a method:
// discovery done, every block still pending behind Block. It has no
// bytecode to verify, so its tests pass each index's depth by hand.
func discovered(code []isa.Instr) *CompiledMethod {
	return &CompiledMethod{M: &classfile.Method{MaxLocals: 4}, Code: code,
		sbIdx: discoverSuperblocks(code), blocks: noBlocks, lowering: new(microCompiler)}
}

// depth returns the verifier's operand-stack depth at p, the one every
// frame reaching p has (0 where no path reaches p).
func depth(cm *CompiledMethod, p int) int {
	stack, _, _ := classfile.KindsAt(cm.M, p)
	return len(stack)
}

// blockAt probes Block(p) at the verifier's depth, as the executor does.
func blockAt(cm *CompiledMethod, p int) *Superblock { return cm.Block(p, depth(cm, p)) }

// TestSuperblockSuffixRuns checks which indices of a pure straight-line
// run get a block. A suffix the micro lowering cannot model — here,
// one that consumes operands pushed before its entry — gets Len == 0
// (the interpreter steps it); every index whose suffix does lower gets
// a block reaching the run's end, with a cost vector that sums the
// instructions' static costs and a stack delta matching the net effect.
func TestSuperblockSuffixRuns(t *testing.T) {
	cm := sbMethod(t, func(a *classfile.Asm) {
		a.ConstI(3) // lowers: the whole run
		a.ConstI(4) // the add below pops the 3 pushed before this entry
		a.AddI()    // pops both operands from before its entry
		a.StoreI(0) // pops the sum from before its entry
		a.LoadI(0)  // the first index after them whose suffix lowers
		a.ConstI(1) // the add below pops the load from before this entry
		a.AddI()    //
		a.Ret()     // ends the run
	})
	ops := []isa.Op{isa.OpPushConst, isa.OpPushConst, isa.OpAddI, isa.OpStoreLocal,
		isa.OpLoadLocal, isa.OpPushConst, isa.OpAddI, isa.OpReturn}
	deltas := []int32{+1, +1, -1, -1, +1, +1, -1, 0} // each op's net stack effect
	lowers := []bool{true, false, false, false, true, false, false, false}
	if len(cm.sbIdx) != len(cm.Code) || len(cm.Code) != len(ops) {
		t.Fatalf("block index length %d, code length %d, want both %d", len(cm.sbIdx), len(cm.Code), len(ops))
	}
	end := len(ops) - 1 // the OpReturn
	for p, in := range cm.Code {
		if in.Op != ops[p] {
			t.Fatalf("pc %d: backend emitted %v, the test expects %v", p, in.Op, ops[p])
		}
		b := blockAt(cm, p)
		if !lowers[p] {
			if b != nil {
				t.Errorf("pc %d: unlowerable suffix must not start a block: %+v", p, b)
			}
			continue
		}
		if int(b.Len) != end-p {
			t.Fatalf("pc %d: Len=%d want %d", p, b.Len, end-p)
		}
		if int(b.Target) != end {
			t.Fatalf("pc %d: Target=%d want %d", p, b.Target, end)
		}
		var cycles uint64
		var classes [isa.NumClasses]uint64
		var delta int32
		for q := p; q < end; q++ {
			cycles += uint64(cm.Code[q].Cost)
			classes[cm.Code[q].Op.Class()] += uint64(cm.Code[q].Cost)
			delta += deltas[q]
		}
		if b.Cycles != cycles || b.ClassCycles != classes {
			t.Fatalf("pc %d: cost vector mismatch: %+v", p, b)
		}
		if b.StackDelta != delta {
			t.Fatalf("pc %d: StackDelta=%d want %d", p, b.StackDelta, delta)
		}
	}
}

// TestEveryPureOpEvaluates pins the invariant the replay's dispatch
// rests on: every op superblock discovery admits is either a stack or
// local op the lowering handles structurally or one isa.Eval defines,
// and every micro-op the lowering emits is one the replay dispatches —
// a move, an absorbable memory op or an Eval op, under the kind its
// code has. A disagreement is this
// test failing, not a host panic in a user's run.
func TestEveryPureOpEvaluates(t *testing.T) {
	structural := map[isa.Op]bool{
		isa.OpNop: true, isa.OpPushConst: true, isa.OpLoadLocal: true,
		isa.OpStoreLocal: true, isa.OpPop: true, isa.OpPop2: true,
		isa.OpDup: true, isa.OpDup2: true, isa.OpIncLocal: true,
	}
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		if !pureOp(op) && !guardedDivOp(op) && !memOp(op) {
			continue
		}
		switch n := op.Arity(); {
		case memOp(op) || structural[op]:
			if n != 0 {
				t.Errorf("%v: Arity %d for an op Eval must not define", op, n)
			}
		case n == 0:
			t.Errorf("discovery admits %v but isa.Eval does not define it", op)
		default:
			if _, ok := isa.Eval(op, 7, 3, -1); !ok {
				t.Errorf("isa.Eval(%v) of nonzero operands reported a trap", op)
			}
		}
		// Operands from locals and from constants (immediate operands,
		// materialised where two would share the one Imm field).
		for _, load := range []isa.Op{isa.OpLoadLocal, isa.OpPushConst} {
			code := []isa.Instr{
				{Op: load, A: 1, Cost: 1}, {Op: load, A: 2, Cost: 1}, {Op: load, A: 3, Cost: 1},
				{Op: op, A: 1, B: 1, Cost: 1},
			}
			mb, ok := new(microCompiler).compile(code, nil, 4)
			if !ok {
				continue // a clean bail: discovery emits no block
			}
			for _, m := range mb.Micro {
				var dispatches bool
				switch m.Kind {
				case KMov, KMovImm:
					dispatches = true
				case KMem:
					dispatches = memOp(m.Code)
				default:
					dispatches = m.Code.Arity() != 0 && m.Kind == arithKinds[m.Code]
				}
				if !dispatches {
					t.Errorf("%v after %v lowered to micro-op %v of kind %d, which the replay cannot dispatch", op, load, m.Code, m.Kind)
				}
			}
		}
	}
}

// TestSuperblockBoundaries checks that calls, returns and allocations
// end blocks and never start or join one, that memory ops never start
// a block (they may be absorbed mid-block), and that a conditional
// branch appears only as a block's terminal instruction.
func TestSuperblockBoundaries(t *testing.T) {
	cm := sbMethod(t, func(a *classfile.Asm) {
		done := a.NewLabel()
		a.ConstI(1)
		a.ConstI(2)
		a.IfICmpGE(done) // joins as a conditional terminal only
		a.ConstI(5)
		a.NewArray(classfile.ElemInt) // impure: allocation
		a.ArrayLen()                  // impure: memory
		a.Ret()
		a.Bind(done)
		a.ConstI(0)
		a.Ret()
	})
	condBranch := func(op isa.Op) bool {
		switch op {
		case isa.OpIf, isa.OpIfCmpI, isa.OpIfCmpRef, isa.OpIfNull:
			return true
		}
		return false
	}
	for i, in := range cm.Code {
		switch in.Op {
		case isa.OpNewArray, isa.OpArrayLen, isa.OpReturn:
			if b := blockAt(cm, i); b != nil {
				t.Errorf("%v at %d starts a block (Len=%d)", in.Op, i, b.Len)
			}
		}
		if b := blockAt(cm, i); b != nil {
			for q := i; q < i+int(b.Len); q++ {
				op := cm.Code[q].Op
				last := q == i+int(b.Len)-1
				if condBranch(op) && (!last || b.End == EndFall) {
					t.Errorf("block at %d holds branch %v at %d as a non-terminal", i, op, q)
				} else if !pureOp(op) && op != isa.OpGoto && !condBranch(op) &&
					!guardedDivOp(op) && !memOp(op) {
					t.Errorf("block at %d covers impure %v at %d", i, op, q)
				}
			}
		}
	}
}

// TestSuperblockMemoryAbsorption checks a memory op is absorbed
// mid-block — never starting one — and that the block's cost shape is
// consistent: Cycles covers exactly the instructions before the first
// boundary, each MemBound carries the memory op's own static cost and
// the cost of the segment after it, and ClassCycles covers the whole
// block.
func TestSuperblockMemoryAbsorption(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.OpLoadLocal, A: 0, Cost: 1},              // arr
		{Op: isa.OpPushConst, A: 3, Cost: 1},              // idx
		{Op: isa.OpALoad, A: int32(isa.ElemInt), Cost: 6}, // absorbed boundary
		{Op: isa.OpPushConst, A: 1, Cost: 1},              //
		{Op: isa.OpAddI, Cost: 1},                         // second pure segment
		{Op: isa.OpReturn, A: 1, Cost: 2},                 // ends the run
	}
	cm := discovered(code)
	if cm.Block(2, 2) != nil {
		t.Errorf("memory op must not start a block: %+v", cm.Block(2, 2))
	}
	b := cm.Block(0, 0)
	if int(b.Len) != 5 {
		t.Fatalf("block at 0 must absorb the load and run to the return: %+v", b)
	}
	if len(b.Micro) == 0 {
		t.Fatalf("absorbed block must lower to micro-ops: %+v", b)
	}
	if len(b.Bounds) != 1 {
		t.Fatalf("want 1 boundary, got %d", len(b.Bounds))
	}
	if b.Cycles != 2 {
		t.Errorf("first segment must cost the two loads: Cycles=%d", b.Cycles)
	}
	bd := b.Bounds[0]
	if bd.RelIdx != 2 || bd.Cost != 6 {
		t.Errorf("boundary must sit at the load with its static cost: %+v", bd)
	}
	if bd.SegCycles != 2 {
		t.Errorf("trailing segment must cost the const+add: %+v", bd)
	}
	var classes [isa.NumClasses]uint64
	for _, in := range code[:b.Len] {
		classes[in.Op.Class()] += uint64(in.Cost)
	}
	if b.ClassCycles != classes {
		t.Errorf("class vector must cover the whole block: got %v, want %v", b.ClassCycles, classes)
	}
	// SP bookkeeping around the boundary: both operands popped to the
	// trap depth, one result after.
	if bd.SPTrap != 0 || bd.SPAfter != 1 {
		t.Errorf("boundary SP shape: %+v", bd)
	}
}

// TestSuperblockConditionalTermination checks a conditional branch
// joins its preceding pure run as the terminal instruction: Len and
// StackDelta count it, Target holds the taken destination, Cond the
// condition code, and the branch alone also forms a Len-1 block.
func TestSuperblockConditionalTermination(t *testing.T) {
	cm := sbMethod(t, func(a *classfile.Asm) {
		done := a.NewLabel()
		a.ConstI(0)
		a.StoreI(0)
		a.LoadI(0)
		a.ConstI(10)
		a.IfICmpGE(done)
		a.Inc(0, 1)
		a.Bind(done)
		a.LoadI(0)
		a.Ret()
	})
	brIdx := -1
	for i, in := range cm.Code {
		if in.Op == isa.OpIfCmpI {
			brIdx = i
		}
	}
	if brIdx < 0 {
		t.Fatal("no conditional branch emitted")
	}
	b := blockAt(cm, brIdx-2) // the LoadI beginning the run
	if int(b.Len) != 3 || b.End != EndIfCmpI {
		t.Fatalf("block %+v: want Len 3 ending in EndIfCmpI", b)
	}
	if b.Target != cm.Code[brIdx].B || b.Cond != cm.Code[brIdx].A {
		t.Fatalf("block %+v: Target/Cond must mirror the branch operands %+v", b, cm.Code[brIdx])
	}
	// Net stack effect: two pushes, two pops by the compare.
	if b.StackDelta != 0 {
		t.Fatalf("StackDelta=%d want 0 (branch pops its operands)", b.StackDelta)
	}
	if lone := blockAt(cm, brIdx); lone.Len != 1 || lone.End != EndIfCmpI || lone.StackDelta != -2 {
		t.Fatalf("branch-only block %+v: want Len 1, EndIfCmpI, StackDelta -2", lone)
	}
}

// TestSuperblockGotoTermination checks a trailing unconditional goto
// joins its block and carries the resolved target, so loop bodies
// fast-forward through their backedge.
func TestSuperblockGotoTermination(t *testing.T) {
	cm := sbMethod(t, func(a *classfile.Asm) {
		loop, done := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(0)
		a.Bind(loop)
		a.LoadI(0)
		a.ConstI(10)
		a.IfICmpGE(done)
		a.Inc(0, 1)
		a.Goto(loop)
		a.Bind(done)
		a.LoadI(0)
		a.Ret()
	})
	var gotoIdx = -1
	for i, in := range cm.Code {
		if in.Op == isa.OpGoto {
			gotoIdx = i
		}
	}
	if gotoIdx < 0 {
		t.Fatal("no goto emitted")
	}
	// The block starting at the loop-body instruction right after the
	// conditional branch must run through the goto and land on its
	// target.
	body := blockAt(cm, gotoIdx-1) // the inc preceding the goto
	if body.Len != 2 {
		t.Fatalf("body block Len=%d want 2 (inc+goto)", body.Len)
	}
	if body.Target != cm.Code[gotoIdx].A {
		t.Fatalf("body Target=%d want goto target %d", body.Target, cm.Code[gotoIdx].A)
	}
	// The goto alone is also a (Len 1) block.
	if g := blockAt(cm, gotoIdx); g.Len != 1 || g.Target != cm.Code[gotoIdx].A {
		t.Fatalf("goto block %+v", g)
	}
}

// TestNextMemoizesSuccessors checks that Next finds the blocks at both
// of a conditional block's successors, keeps what it found (a chain
// step then skips the index), and re-probes a successor where no block
// starts.
func TestNextMemoizesSuccessors(t *testing.T) {
	cm := sbMethod(t, func(a *classfile.Asm) {
		loop, done := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(0)
		a.Bind(loop)
		a.LoadI(0)
		a.ConstI(10)
		a.IfICmpGE(done)
		a.Inc(0, 1)
		a.Goto(loop)
		a.Bind(done)
		a.LoadI(0)
		a.Ret()
	})
	head := 2 // the LoadI at the loop label
	b := blockAt(cm, head)
	if b == nil || b.End != EndIfCmpI {
		t.Fatalf("loop head block %+v: want one ending in EndIfCmpI", b)
	}
	ret := len(cm.Code) - 1
	tail := blockAt(cm, ret-1) // the LoadI before the return
	if got := cm.Next(tail, ret, depth(cm, ret)); got != nil || tail.taken != nil || tail.fall != nil {
		t.Fatalf("no block starts at the return: Next = %+v, memo %p/%p", got, tail.taken, tail.fall)
	}
	taken, fall := int(b.Target), head+int(b.Len)
	for _, pc := range []int{taken, fall} {
		want := blockAt(cm, pc)
		if want == nil {
			t.Fatalf("pc %d: no block to chain into", pc)
		}
		if got := cm.Next(b, pc, depth(cm, pc)); got != want {
			t.Fatalf("pc %d: Next = %p, Block = %p", pc, got, want)
		}
		cm.sbIdx[pc] = 0 // a re-probe would now find nothing
		if got := cm.Next(b, pc, depth(cm, pc)); got != want {
			t.Fatalf("pc %d: Next re-probed instead of using its memo", pc)
		}
	}
}

// TestSuperblockGuardedDivision checks that a divide by a preceding
// nonzero constant joins a block but never begins one, and a potentially
// trapping divide (computed divisor) ends the run.
func TestSuperblockGuardedDivision(t *testing.T) {
	cm := sbMethod(t, func(a *classfile.Asm) {
		a.ConstI(2)
		a.StoreI(0)
		a.ConstI(100)
		a.ConstI(7)
		a.DivI() // guarded: divisor is the preceding constant 7
		a.ConstI(3)
		a.LoadI(0)
		a.DivI() // unguarded: divisor from a local
		a.AddI()
		a.Ret()
	})
	var divs []int
	for i, in := range cm.Code {
		if in.Op == isa.OpDivI {
			divs = append(divs, i)
		}
	}
	if len(divs) != 2 {
		t.Fatalf("want 2 divs, got %v", divs)
	}
	guarded, unguarded := divs[0], divs[1]
	if blockAt(cm, guarded) != nil {
		t.Errorf("guarded div must not start a block")
	}
	// The block from the start must cover the guarded div but stop
	// before the unguarded one.
	b := blockAt(cm, 0)
	if b.Len == 0 || 0+int(b.Len) <= guarded {
		t.Errorf("block at 0 (Len=%d) should cover the guarded div at %d", b.Len, guarded)
	}
	if 0+int(b.Len) > unguarded {
		t.Errorf("block at 0 (Len=%d) must stop before the unguarded div at %d", b.Len, unguarded)
	}
	if blockAt(cm, unguarded) != nil {
		t.Errorf("unguarded div must not start a block")
	}
}

// TestSuperblockZeroDivisorNotGuarded checks a constant zero divisor is
// not admitted (it must trap per-instruction).
func TestSuperblockZeroDivisorNotGuarded(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.OpPushConst, A: 5, Cost: 1},
		{Op: isa.OpPushConst, A: 0, Cost: 1},
		{Op: isa.OpDivI, Cost: 4},
		{Op: isa.OpReturn, A: 1, Cost: 2},
	}
	cm := discovered(code)
	if b := cm.Block(0, 0); int(b.Len) != 2 {
		t.Errorf("run must end before the zero-divisor div: %+v", b)
	}
	if cm.Block(2, 2) != nil {
		t.Errorf("zero-divisor div must not be in any block start")
	}
}
