package classfile

import "fmt"

// KindsAt re-runs the verifier over a resolved method and returns the
// merged operand-stack and local kinds on entry to bytecode index bc:
// the type state every execution reaching bc has there. A local whose
// paths disagree, or that none has written, reads Void. Nothing is
// kept on the method (resolution verifies thousands of methods nobody
// asks this of) and the method is only read, so programs shared between
// goroutines may be queried concurrently. An index no path reaches is
// an error.
func KindsAt(m *Method, bc int) (stack, locals []TypeKind, err error) {
	var v verifier
	if err := v.run(m); err != nil {
		return nil, nil, err
	}
	return v.kindsAt(bc)
}

// Depths re-runs the verifier over a resolved method and returns the
// operand-stack depth on entry to every bytecode index — KindsAt's stack
// length, in one pass over the body — and -1 at an index no path
// reaches. Like KindsAt it keeps nothing on the method.
func Depths(m *Method) ([]int32, error) {
	var v verifier
	if err := v.run(m); err != nil {
		return nil, err
	}
	depths := make([]int32, len(m.Code))
	reached := false
	for pc := range m.Code {
		if v.leader[pc] != 0 {
			reached = v.load(pc)
		}
		if !reached {
			depths[pc] = -1
			continue
		}
		depths[pc] = int32(len(v.stack))
		if reached = !m.Code[pc].Op.EndsBlock(); reached {
			if err := v.apply(pc, &m.Code[pc]); err != nil {
				return nil, err
			}
		}
	}
	return depths, nil
}

// kindsAt answers KindsAt from a completed run, in the working state
// (the next call overwrites what it returns): it walks back to the
// leader whose block holds bc and replays the block from that leader's
// fixed-point in-state. The replay cannot fail — run applied the same
// instructions to the same state — and passes no branch: an instruction
// after a conditional is itself a leader, so the only control transfer
// it can meet is one that never falls through, past which bc is
// unreachable.
func (v *verifier) kindsAt(bc int) (stack, locals []TypeKind, err error) {
	code := v.m.Code
	unreached := func() ([]TypeKind, []TypeKind, error) {
		return nil, nil, fmt.Errorf("verify %s: no path reaches pc %d", v.m.Sig(), bc)
	}
	if bc < 0 || bc >= len(code) {
		return unreached()
	}
	l := bc
	for v.leader[l] == 0 {
		l--
	}
	if !v.load(l) {
		return unreached()
	}
	for pc := l; pc < bc; pc++ {
		if code[pc].Op.EndsBlock() {
			return unreached()
		}
		if err := v.apply(pc, &code[pc]); err != nil {
			return nil, nil, err
		}
	}
	return v.stack, v.locals, nil
}

// wellFormed is the structural pass Resolve runs over every instruction
// of a body before the verifier, which checks only what a path reaches
// while the JIT lowers everything: the opcode exists, its Ref names a
// pool entry of the type BCOp.operand says (a lookupswitch's keys paired
// with its targets), and every branch, switch and handler index lies in
// [0, len(Code)] — the assembler binds labels at the end of a body, and
// whether control may arrive there is the verifier's question.
func wellFormed(m *Method) error {
	n := len(m.Code)
	inBody := func(i int) bool { return i >= 0 && i <= n }
	for pc := range m.Code {
		bc := &m.Code[pc]
		errf := func(format string, args ...any) error {
			return fmt.Errorf("verify %s: pc %d (%v): %s", m.Sig(), pc, bc.Op, fmt.Sprintf(format, args...))
		}
		if int(bc.Op) >= NumBCOps {
			return errf("unhandled opcode")
		}
		if k := bc.Op.operand(); k != operandNone {
			if int(bc.Ref) >= len(m.Pool) {
				return errf("ref %d outside a pool of %d", bc.Ref, len(m.Pool))
			}
			e := m.Pool[bc.Ref]
			if msg := k.check(bc.Ref, e); msg != "" {
				return errf("%s", msg)
			}
			if sw, _ := e.(*Switch); bc.Op == BCLookupSwitch && len(sw.Keys) != len(sw.Targets) {
				return errf("%d keys vs %d targets", len(sw.Keys), len(sw.Targets))
			}
		}
		if !bc.Op.IsBranch() {
			continue
		}
		if !inBody(int(bc.Target)) {
			return errf("target %d outside [0,%d]", bc.Target, n)
		}
		for _, t := range bc.switchTargets(m.Pool) {
			if !inBody(int(t)) {
				return errf("table target %d outside [0,%d]", t, n)
			}
		}
	}
	for i, h := range m.Handlers {
		if !inBody(h.From) || !inBody(h.To) || !inBody(h.Target) {
			return fmt.Errorf("verify %s: handler %d [%d,%d)->%d outside [0,%d]",
				m.Sig(), i, h.From, h.To, h.Target, n)
		}
	}
	return nil
}

// inState locates a leader's merged in-state in the arena: locals at
// arena[off : off+MaxLocals], the stack in the depth slots after them.
// depth is -1 until a path first reaches the leader.
type inState struct{ off, depth int32 }

// verifier abstractly interprets a method body that passed wellFormed
// over the JVM computational types, checking that: every path keeps a
// consistent operand-stack shape, locals are read at the kind they were
// written, no path branches to the end of the body, and control cannot
// fall off it. run leaves the body's MaxStack in maxStack.
//
// This is a kind-level verifier (it does not track class hierarchies of
// references), which is the level the JIT and executor rely on.
//
// One working state flows through straight-line code; a merged in-state
// is kept only where paths can join — at leaders: the entry, every
// branch, switch and handler target, and the instruction after a
// conditional branch — all in one arena. The state on entry to any other
// instruction is a function of its leader's, so nothing is lost by not
// storing it (kindsAt replays it). The buffers are reused from method to
// method (Resolve verifies them all through one verifier), so verifying
// a program costs its largest body once rather than every body.
type verifier struct {
	m *Method
	// leader[pc] is 0 inside a block, else 1 + the index into in of the
	// block that starts at pc.
	leader []int32
	in     []inState
	arena  []TypeKind
	// work is a stack of leaders whose in-state changed.
	work []int32
	// stack and locals are the working state.
	stack, locals []TypeKind
	maxStack      int
	// steps counts instructions applied. A block is walked when a path
	// first reaches its leader and again each time a local of the
	// leader's in-state turns Void, so steps ≤ len(Code) × (MaxLocals+1).
	steps int
}

func (v *verifier) errf(pc int, format string, args ...any) error {
	return fmt.Errorf("verify %s: pc %d (%v): %s",
		v.m.Sig(), pc, v.m.Code[pc].Op, fmt.Sprintf(format, args...))
}

// markLeader makes pc a leader if it is an instruction; a target outside
// the body is reported when (and only if) a path takes it.
func (v *verifier) markLeader(pc int) {
	if pc >= 0 && pc < len(v.leader) && v.leader[pc] == 0 {
		v.in = append(v.in, inState{depth: -1})
		v.leader[pc] = int32(len(v.in))
	}
}

func (v *verifier) run(m *Method) error {
	code := m.Code
	if m.MaxLocals < m.ArgSlots() {
		return fmt.Errorf("verify %s: %d locals cannot hold %d arguments",
			m.Sig(), m.MaxLocals, m.ArgSlots())
	}
	v.m = m
	v.maxStack, v.steps = 0, 0
	v.in, v.arena, v.work = v.in[:0], v.arena[:0], v.work[:0]
	if cap(v.leader) < len(code) {
		v.leader = make([]int32, len(code))
	} else {
		v.leader = v.leader[:len(code)]
		clear(v.leader)
	}
	v.markLeader(0)
	for pc := range code {
		bc := &code[pc]
		if !bc.Op.IsBranch() {
			continue
		}
		v.markLeader(int(bc.Target))
		if bc.Op.IsConditional() {
			v.markLeader(pc + 1)
		}
		for _, t := range bc.switchTargets(m.Pool) {
			v.markLeader(int(t))
		}
	}
	for _, h := range m.Handlers {
		v.markLeader(h.Target)
	}

	v.stack = v.stack[:0]
	if cap(v.locals) < m.MaxLocals {
		v.locals = make([]TypeKind, m.MaxLocals)
	} else {
		v.locals = v.locals[:m.MaxLocals]
		clear(v.locals)
	}
	idx := 0
	if !m.IsStatic() {
		v.locals[idx] = Ref
		idx++
	}
	for _, pk := range m.Params {
		v.locals[idx] = pk
		idx++
	}
	if err := v.merge(0, v.stack); err != nil {
		return err
	}
	for len(v.work) > 0 {
		l := int(v.work[len(v.work)-1])
		v.work = v.work[:len(v.work)-1]
		if err := v.flow(l); err != nil {
			return err
		}
	}
	return nil
}

// load makes leader l's in-state the working state; false if no path has
// reached l.
func (v *verifier) load(l int) bool {
	st := v.in[v.leader[l]-1]
	if st.depth < 0 {
		return false
	}
	nl := int32(len(v.locals))
	copy(v.locals, v.arena[st.off:st.off+nl])
	v.stack = append(v.stack[:0], v.arena[st.off+nl:st.off+nl+st.depth]...)
	return true
}

// merge joins the working locals and the given stack into the recorded
// in-state of pc, queueing pc when anything changed.
func (v *verifier) merge(pc int, stack []TypeKind) error {
	if pc < 0 || pc >= len(v.m.Code) {
		return fmt.Errorf("verify %s: branch to pc %d outside [0,%d)", v.m.Sig(), pc, len(v.m.Code))
	}
	if len(stack) > v.maxStack {
		v.maxStack = len(stack)
	}
	st := &v.in[v.leader[pc]-1]
	nl := int32(len(v.locals))
	if st.depth < 0 {
		st.off, st.depth = int32(len(v.arena)), int32(len(stack))
		v.arena = append(append(v.arena, v.locals...), stack...)
		v.work = append(v.work, int32(pc))
		return nil
	}
	if int(st.depth) != len(stack) {
		return fmt.Errorf("verify %s: pc %d: stack depth mismatch %d vs %d",
			v.m.Sig(), pc, st.depth, len(stack))
	}
	old := v.arena[st.off+nl : st.off+nl+st.depth]
	for i := range old {
		if old[i] != stack[i] {
			return fmt.Errorf("verify %s: pc %d: stack slot %d kind mismatch %v vs %v",
				v.m.Sig(), pc, i, old[i], stack[i])
		}
	}
	changed := false
	old = v.arena[st.off : st.off+nl]
	for i := range old {
		if old[i] != v.locals[i] && old[i] != Void {
			old[i] = Void // conflicting kinds: local unusable past join
			changed = true
		}
	}
	if changed {
		v.work = append(v.work, int32(pc))
	}
	return nil
}

// flow walks the block that starts at leader l from its in-state,
// merging the working state into every leader control can reach from it.
func (v *verifier) flow(l int) error {
	v.load(l)
	code := v.m.Code
	handlerStack := [...]TypeKind{Ref}
	for pc := l; ; pc++ {
		bc := &code[pc]
		v.steps++

		// Any instruction inside a protected range can transfer to its
		// handler with the current locals and a stack of one reference.
		for i := range v.m.Handlers {
			if h := &v.m.Handlers[i]; pc >= h.From && pc < h.To {
				if err := v.merge(h.Target, handlerStack[:]); err != nil {
					return err
				}
			}
		}
		if err := v.apply(pc, bc); err != nil {
			return err
		}
		if bc.Op.IsBranch() {
			if err := v.merge(int(bc.Target), v.stack); err != nil {
				return err
			}
			for _, t := range bc.switchTargets(v.m.Pool) {
				if err := v.merge(int(t), v.stack); err != nil {
					return err
				}
			}
		}
		if bc.Op.EndsBlock() {
			return nil
		}
		if pc+1 >= len(code) {
			return v.errf(pc, "control falls off the end")
		}
		if v.leader[pc+1] != 0 {
			return v.merge(pc+1, v.stack)
		}
	}
}

func (v *verifier) push(k TypeKind) {
	v.stack = append(v.stack, k)
	if len(v.stack) > v.maxStack {
		v.maxStack = len(v.stack)
	}
}

func (v *verifier) popAny(pc int) (TypeKind, error) {
	if len(v.stack) == 0 {
		return Void, v.errf(pc, "pop from empty stack")
	}
	got := v.stack[len(v.stack)-1]
	v.stack = v.stack[:len(v.stack)-1]
	return got, nil
}

func (v *verifier) pop(pc int, want TypeKind) error {
	got, err := v.popAny(pc)
	if err == nil && got != want {
		err = v.errf(pc, "expected %v on stack, found %v", want, got)
	}
	return err
}

// pops pops the given kinds, first to last.
func (v *verifier) pops(pc int, want ...TypeKind) error {
	for _, k := range want {
		if err := v.pop(pc, k); err != nil {
			return err
		}
	}
	return nil
}

// op pops the given kinds (top of stack first) and pushes result.
func (v *verifier) op(pc int, result TypeKind, want ...TypeKind) error {
	if err := v.pops(pc, want...); err != nil {
		return err
	}
	v.push(result)
	return nil
}

func (v *verifier) loadLocal(pc int, bc *BC, want TypeKind) error {
	i := int(bc.A)
	if i < 0 || i >= len(v.locals) {
		return v.errf(pc, "local %d out of range", i)
	}
	if v.locals[i] != want {
		return v.errf(pc, "local %d holds %v, want %v", i, v.locals[i], want)
	}
	v.push(want)
	return nil
}

func (v *verifier) storeLocal(pc int, bc *BC, want TypeKind) error {
	if err := v.pop(pc, want); err != nil {
		return err
	}
	i := int(bc.A)
	if i < 0 || i >= len(v.locals) {
		return v.errf(pc, "local %d out of range", i)
	}
	v.locals[i] = want
	return nil
}

// elemType is the computational type of an array element kind.
func elemType(k isaElem) TypeKind {
	switch k {
	case ElemLong:
		return Long
	case ElemFloat:
		return Float
	case ElemDouble:
		return Double
	case ElemRef:
		return Ref
	default:
		return Int
	}
}

// apply is the instruction's effect on the working state: what it pops,
// pushes and writes. Where control goes next is flow's business.
func (v *verifier) apply(pc int, bc *BC) error {
	switch bc.Op {
	case BCNop:
	case BCConstI:
		v.push(Int)
	case BCConstL:
		v.push(Long)
	case BCConstF:
		v.push(Float)
	case BCConstD:
		v.push(Double)
	case BCConstNull, BCConstStr:
		v.push(Ref)

	case BCLoadI:
		return v.loadLocal(pc, bc, Int)
	case BCLoadL:
		return v.loadLocal(pc, bc, Long)
	case BCLoadF:
		return v.loadLocal(pc, bc, Float)
	case BCLoadD:
		return v.loadLocal(pc, bc, Double)
	case BCLoadRef:
		return v.loadLocal(pc, bc, Ref)
	case BCStoreI:
		return v.storeLocal(pc, bc, Int)
	case BCStoreL:
		return v.storeLocal(pc, bc, Long)
	case BCStoreF:
		return v.storeLocal(pc, bc, Float)
	case BCStoreD:
		return v.storeLocal(pc, bc, Double)
	case BCStoreRef:
		return v.storeLocal(pc, bc, Ref)
	case BCInc:
		i := int(bc.A)
		if i < 0 || i >= len(v.locals) || v.locals[i] != Int {
			return v.errf(pc, "iinc on non-int local %d", i)
		}

	case BCPop:
		_, err := v.popAny(pc)
		return err
	case BCPop2:
		return v.shuffle(pc, 2)
	case BCDup:
		return v.shuffle(pc, 1, 0, 0)
	case BCDupX1:
		return v.shuffle(pc, 2, 0, 1, 0)
	case BCDupX2:
		return v.shuffle(pc, 3, 0, 2, 1, 0)
	case BCDup2:
		return v.shuffle(pc, 2, 1, 0, 1, 0)
	case BCSwap:
		return v.shuffle(pc, 2, 0, 1)

	case BCAddI, BCSubI, BCMulI, BCDivI, BCRemI, BCAndI, BCOrI, BCXorI,
		BCShlI, BCShrI, BCUShrI:
		return v.op(pc, Int, Int, Int)
	case BCNegI, BCI2B, BCI2C, BCI2S:
		return v.op(pc, Int, Int)
	case BCAddL, BCSubL, BCMulL, BCDivL, BCRemL, BCAndL, BCOrL, BCXorL:
		return v.op(pc, Long, Long, Long)
	case BCShlL, BCShrL, BCUShrL:
		// Shift amount is an int.
		return v.op(pc, Long, Int, Long)
	case BCNegL:
		return v.op(pc, Long, Long)
	case BCCmpL:
		return v.op(pc, Int, Long, Long)
	case BCAddF, BCSubF, BCMulF, BCDivF, BCRemF:
		return v.op(pc, Float, Float, Float)
	case BCNegF:
		return v.op(pc, Float, Float)
	case BCCmpFL, BCCmpFG:
		return v.op(pc, Int, Float, Float)
	case BCAddD, BCSubD, BCMulD, BCDivD, BCRemD:
		return v.op(pc, Double, Double, Double)
	case BCNegD:
		return v.op(pc, Double, Double)
	case BCCmpDL, BCCmpDG:
		return v.op(pc, Int, Double, Double)

	case BCI2L:
		return v.op(pc, Long, Int)
	case BCI2F:
		return v.op(pc, Float, Int)
	case BCI2D:
		return v.op(pc, Double, Int)
	case BCL2I:
		return v.op(pc, Int, Long)
	case BCL2F:
		return v.op(pc, Float, Long)
	case BCL2D:
		return v.op(pc, Double, Long)
	case BCF2I:
		return v.op(pc, Int, Float)
	case BCF2L:
		return v.op(pc, Long, Float)
	case BCF2D:
		return v.op(pc, Double, Float)
	case BCD2I:
		return v.op(pc, Int, Double)
	case BCD2L:
		return v.op(pc, Long, Double)
	case BCD2F:
		return v.op(pc, Float, Double)

	case BCGoto:
	case BCIfEQ, BCIfNE, BCIfLT, BCIfGE, BCIfGT, BCIfLE:
		return v.pop(pc, Int)
	case BCIfICmpEQ, BCIfICmpNE, BCIfICmpLT, BCIfICmpGE, BCIfICmpGT, BCIfICmpLE:
		return v.pops(pc, Int, Int)
	case BCIfACmpEQ, BCIfACmpNE:
		return v.pops(pc, Ref, Ref)
	case BCIfNull, BCIfNonNull:
		return v.pop(pc, Ref)
	case BCTableSwitch, BCLookupSwitch:
		return v.pop(pc, Int)

	case BCGetField:
		return v.op(pc, bc.Field(v.m.Pool).Type, Ref)
	case BCPutField:
		return v.pops(pc, bc.Field(v.m.Pool).Type, Ref)
	case BCGetStatic:
		v.push(bc.Field(v.m.Pool).Type)
	case BCPutStatic:
		return v.pop(pc, bc.Field(v.m.Pool).Type)

	case BCNewArray:
		return v.op(pc, Ref, Int)
	case BCALoad:
		return v.op(pc, elemType(bc.Kind), Int, Ref)
	case BCAStore:
		return v.pops(pc, elemType(bc.Kind), Int, Ref)
	case BCArrayLen:
		return v.op(pc, Int, Ref)

	case BCNew:
		v.push(Ref)
	case BCANewArray:
		return v.op(pc, Ref, Int)
	case BCInstanceOf:
		return v.op(pc, Int, Ref)
	case BCCheckCast:
		return v.op(pc, Ref, Ref)
	case BCInvokeVirtual, BCInvokeSpecial, BCInvokeStatic, BCInvokeInterface:
		callee := bc.Method(v.m.Pool)
		for i := len(callee.Params) - 1; i >= 0; i-- {
			if err := v.pop(pc, callee.Params[i]); err != nil {
				return err
			}
		}
		if !callee.IsStatic() {
			if err := v.pop(pc, Ref); err != nil {
				return err
			}
		}
		if callee.Ret != Void {
			v.push(callee.Ret)
		}

	case BCReturn, BCReturnVoid:
		if bc.Op == BCReturn {
			if err := v.pop(pc, v.m.Ret); err != nil {
				return err
			}
		}
		if len(v.stack) != 0 {
			// JVM permits residue; we keep it strict to catch builder bugs.
			return v.errf(pc, "stack not empty at return (%d residue)", len(v.stack))
		}
	case BCMonitorEnter, BCMonitorExit, BCThrow:
		return v.pop(pc, Ref)

	default:
		return v.errf(pc, "unhandled opcode")
	}
	return nil
}

// shuffle pops n values of any kind — t[0] the old top — and pushes
// t[order[0]], t[order[1]], … (so the last index named ends on top).
func (v *verifier) shuffle(pc, n int, order ...int) error {
	var t [3]TypeKind
	for i := 0; i < n; i++ {
		k, err := v.popAny(pc)
		if err != nil {
			return err
		}
		t[i] = k
	}
	for _, i := range order {
		v.push(t[i])
	}
	return nil
}
