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
// every entry lowered, unpublished. It has no bytecode to verify, so its
// tests pass each index's depth by hand.
func discovered(code []isa.Instr, depth ...int32) *CompiledMethod {
	bd := &body{code: code, maxLocals: 4}
	bd.lower(depth, new(microCompiler))
	return &CompiledMethod{M: &classfile.Method{MaxLocals: 4}, Code: code, body: bd}
}

// TestSuperblockSuffixRuns checks which indices of a pure straight-line
// run get a block: only those where control enters the run — its head
// or a jump target — whose suffix the micro lowering can model. A
// suffix that consumes operands pushed before its entry gets none (the
// interpreter steps it), and so does every index control only falls
// into. Each block reaches the run's end (its terminal included), with
// a cost vector that sums the instructions' static costs and a stack
// delta matching the net effect.
func TestSuperblockSuffixRuns(t *testing.T) {
	cm := sbMethod(t, func(a *classfile.Asm) {
		els, join := a.NewLabel(), a.NewLabel()
		a.ConstI(1)  // 0 head: lowers through the branch
		a.StoreI(0)  // 1 fallen into: no entry
		a.LoadI(0)   // 2 fallen into: no entry
		a.IfEQ(els)  // 3
		a.ConstI(3)  // 4 head: lowers through the goto
		a.Goto(join) // 5
		a.Bind(els)
		a.ConstI(4) // 6 jump target: lowers to the return
		a.Bind(join)
		a.StoreI(0) // 7 jump target: pops the constant pushed before its entry
		a.LoadI(0)  // 8 fallen into: no entry
		a.ConstI(1) // 9
		a.AddI()    // 10
		a.Ret()     // 11 ends the run
	})
	ops := []isa.Op{isa.OpPushConst, isa.OpStoreLocal, isa.OpLoadLocal, isa.OpIf, isa.OpPushConst,
		isa.OpGoto, isa.OpPushConst, isa.OpStoreLocal, isa.OpLoadLocal, isa.OpPushConst, isa.OpAddI, isa.OpReturn}
	deltas := []int32{+1, -1, +1, -1, +1, 0, +1, -1, +1, +1, -1, 0} // each op's net stack effect
	lens := []int{4, 0, 0, 0, 2, 0, 5, 0, 0, 0, 0, 0}               // the block at each index, 0 for none
	targets := []int32{6, 0, 0, 0, 7, 0, 11}
	if len(cm.body.sbIdx) != len(cm.Code) || len(cm.Code) != len(ops) {
		t.Fatalf("block index length %d, code length %d, want both %d", len(cm.body.sbIdx), len(cm.Code), len(ops))
	}
	for p, in := range cm.Code {
		if in.Op != ops[p] {
			t.Fatalf("pc %d: backend emitted %v, the test expects %v", p, in.Op, ops[p])
		}
		b := cm.Block(p)
		if lens[p] == 0 {
			if b != nil {
				t.Errorf("pc %d: no block may start here: %+v", p, b)
			}
			continue
		}
		if b == nil || int(b.Len) != lens[p] {
			t.Fatalf("pc %d: block %+v, want Len %d", p, b, lens[p])
		}
		if b.Target != targets[p] {
			t.Fatalf("pc %d: Target=%d want %d", p, b.Target, targets[p])
		}
		var cycles uint64
		var classes [isa.NumClasses]uint64
		var delta int32
		for q := p; q < p+lens[p]; q++ {
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

// TestSuperblockEntries checks discovery marks exactly the indices where
// control enters a run: its head, a switch entry or default, a handler,
// and the index past a memory instruction — here each of them fallen
// into from the instruction before as well, so only the rule can make it
// an entry. A mark is discovery's answer whether or not the suffix there
// then lowers.
func TestSuperblockEntries(t *testing.T) {
	cm := sbMethod(t, func(a *classfile.Asm) {
		c0, c1, def := a.NewLabel(), a.NewLabel(), a.NewLabel()
		tryFrom, tryTo, handler := a.NewLabel(), a.NewLabel(), a.NewLabel()
		a.ConstI(0) // 0 head
		a.StoreI(0) // 1
		a.LoadI(0)  // 2
		a.TableSwitch(0, def, c0, c1)
		a.Bind(c0)
		a.Inc(0, 1) // 4 head
		a.Bind(c1)
		a.Inc(0, 2) // 5 switch entry
		a.Bind(def)
		a.Inc(0, 3) // 6 switch default
		a.Bind(tryFrom)
		a.ConstI(4)                   // 7
		a.NewArray(classfile.ElemInt) // 8 ends the run
		a.Bind(tryTo)
		a.ArrayLen() // 9 a memory instruction starts no block
		a.StoreI(0)  // 10 past a memory instruction
		a.Null()     // 11
		a.Bind(handler)
		a.StoreRef(1) // 12 handler
		a.LoadI(0)    // 13
		a.Ret()       // 14
		a.Catch(tryFrom, tryTo, handler, nil)
	})
	entries := map[int]bool{0: true, 4: true, 5: true, 6: true, 10: true, 12: true}
	if len(cm.Code) != 15 {
		t.Fatalf("%d instructions, the test expects 15", len(cm.Code))
	}
	depth, err := classfile.Depths(cm.M)
	if err != nil {
		t.Fatal(err)
	}
	for p, i := range discoverSuperblocks(cm.Code, cm.Tables, cm.Handlers, depth) {
		if entry := i < 0; entry != entries[p] {
			t.Errorf("pc %d (%v): entry %v, want %v", p, cm.Code[p].Op, entry, entries[p])
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
			if b := cm.Block(i); b != nil {
				t.Errorf("%v at %d starts a block (Len=%d)", in.Op, i, b.Len)
			}
		}
		if b := cm.Block(i); b != nil {
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
	cm := discovered(code, 0, 1, 2, 1, 2, 1)
	if cm.Block(2) != nil {
		t.Errorf("memory op must not start a block: %+v", cm.Block(2))
	}
	b := cm.Block(0)
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
// condition code. A branch just past an absorbed memory instruction is
// where the replay hands back at a quantum expiry, so the branch alone
// also forms a Len-1 block there.
func TestSuperblockConditionalTermination(t *testing.T) {
	cm := sbMethod(t, func(a *classfile.Asm) {
		loop, done := a.NewLabel(), a.NewLabel()
		a.ConstI(4)
		a.NewArray(classfile.ElemInt)
		a.StoreRef(1)
		a.ConstI(0)
		a.StoreI(0)
		a.Bind(loop)
		a.LoadI(0)
		a.ConstI(10)
		a.IfICmpGE(done)
		a.LoadRef(1)
		a.ArrayLen()
		a.IfEQ(done)
		a.Inc(0, 1)
		a.Goto(loop)
		a.Bind(done)
		a.LoadI(0)
		a.Ret()
	})
	brIdx, lenIdx := -1, -1
	for i, in := range cm.Code {
		switch in.Op {
		case isa.OpIfCmpI:
			brIdx = i
		case isa.OpArrayLen:
			lenIdx = i
		}
	}
	if brIdx < 0 || lenIdx < 0 {
		t.Fatal("no conditional branch or arraylength emitted")
	}
	b := cm.Block(brIdx - 2) // the LoadI at the loop label
	if b == nil || int(b.Len) != 3 || b.End != EndIfCmpI {
		t.Fatalf("block %+v: want Len 3 ending in EndIfCmpI", b)
	}
	if b.Target != cm.Code[brIdx].B || b.Cond != cm.Code[brIdx].A {
		t.Fatalf("block %+v: Target/Cond must mirror the branch operands %+v", b, cm.Code[brIdx])
	}
	// Net stack effect: two pushes, two pops by the compare.
	if b.StackDelta != 0 {
		t.Fatalf("StackDelta=%d want 0 (branch pops its operands)", b.StackDelta)
	}
	if cm.Block(brIdx) != nil {
		t.Fatalf("the branch control falls into starts a block: %+v", cm.Block(brIdx))
	}
	if lone := cm.Block(lenIdx + 1); lone == nil || lone.Len != 1 || lone.End != isa.OpIf || lone.StackDelta != -1 {
		t.Fatalf("branch-only block %+v: want Len 1, OpIf, StackDelta -1", lone)
	}
}

// TestSuperblockGotoTermination checks a trailing unconditional goto
// joins its block and carries the resolved target, so loop bodies
// fast-forward through their backedge.
func TestSuperblockGotoTermination(t *testing.T) {
	cm := sbMethod(t, func(a *classfile.Asm) {
		loop, latch, done := a.NewLabel(), a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(0)
		a.Bind(loop)
		a.LoadI(0)
		a.ConstI(10)
		a.IfICmpGE(done)
		a.LoadI(0)
		a.ConstI(5)
		a.IfICmpLT(latch)
		a.Inc(0, 1)
		a.Bind(latch)
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
	body := cm.Block(gotoIdx - 1) // the inc preceding the goto
	if body == nil || body.Len != 2 {
		t.Fatalf("body block %+v: want Len 2 (inc+goto)", body)
	}
	if body.Target != cm.Code[gotoIdx].A {
		t.Fatalf("body Target=%d want goto target %d", body.Target, cm.Code[gotoIdx].A)
	}
	// The goto is the latch's jump target, so it alone is also a (Len 1)
	// block.
	if g := cm.Block(gotoIdx); g == nil || g.Len != 1 || g.Target != cm.Code[gotoIdx].A {
		t.Fatalf("goto block %+v", g)
	}
}

// TestNextReadsSuccessors checks that Next returns the blocks at both of
// a conditional block's successors — the blocks Block finds there — and
// nil at a successor where no block starts.
func TestNextReadsSuccessors(t *testing.T) {
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
	b := cm.Block(head)
	if b == nil || b.End != EndIfCmpI {
		t.Fatalf("loop head block %+v: want one ending in EndIfCmpI", b)
	}
	ret := len(cm.Code) - 1
	tail := cm.Block(ret - 1) // the LoadI before the return
	if got := tail.Next(ret); got != nil {
		t.Fatalf("no block starts at the return: Next = %+v", got)
	}
	taken, fall := int(b.Target), head+int(b.Len)
	for _, pc := range []int{taken, fall} {
		want := cm.Block(pc)
		if want == nil {
			t.Fatalf("pc %d: no block to chain into", pc)
		}
		if got := b.Next(pc); got != want {
			t.Fatalf("pc %d: Next = %p, Block = %p", pc, got, want)
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
	if cm.Block(guarded) != nil {
		t.Errorf("guarded div must not start a block")
	}
	// The block from the start must cover the guarded div but stop
	// before the unguarded one.
	b := cm.Block(0)
	if b.Len == 0 || 0+int(b.Len) <= guarded {
		t.Errorf("block at 0 (Len=%d) should cover the guarded div at %d", b.Len, guarded)
	}
	if 0+int(b.Len) > unguarded {
		t.Errorf("block at 0 (Len=%d) must stop before the unguarded div at %d", b.Len, unguarded)
	}
	if cm.Block(unguarded) != nil {
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
	cm := discovered(code, 0, 1, 2, 1)
	if b := cm.Block(0); int(b.Len) != 2 {
		t.Errorf("run must end before the zero-divisor div: %+v", b)
	}
	if cm.Block(2) != nil {
		t.Errorf("zero-divisor div must not be in any block start")
	}
}
