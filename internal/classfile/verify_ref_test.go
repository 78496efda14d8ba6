package classfile

import (
	"fmt"
	"reflect"
	"testing"
)

// This file keeps the verifier as it was before the leader-based one: a
// merged in-state stored for every reached pc in a map, cloned per
// instruction and per successor. It is the reference the differential
// test and FuzzVerify hold verify.go to — same accept/reject, same
// error, same MaxStack, same kinds at every reached pc — and shares no
// code with it. Ported to the 40-byte BC (targets are indexes, operands
// sit in one slot), then to the 16-byte one (the slot is an index into
// the method's Pool), and given the same checks verify.go gained for
// hand-assigned code: locals that cannot hold the arguments, a switch
// without its table or with unpaired keys, a nil class on anewarray /
// instanceof / checkcast.

// refVerify runs the reference over m and returns its in-state map.
func refVerify(m *Method) (*refVerifier, error) {
	v := &refVerifier{m: m, in: make(map[int]*vstate)}
	return v, v.run()
}

// checkAgainstReference verifies m both ways and reports any difference:
// outcome and error text, MaxStack, which pcs are reached and the kinds
// there, and the new verifier's step bound. Both see only what Resolve
// would show them: a body wellFormed turns away (verify.go no longer
// checks an operand is there; the reference still does) compares nothing.
func checkAgainstReference(t testing.TB, m *Method) {
	t.Helper()
	if wellFormed(m) != nil {
		return
	}
	ref, refErr := refVerify(m)
	var v verifier
	err := v.run(m)
	if bound := len(m.Code) * (m.MaxLocals + 1); v.steps > bound {
		t.Errorf("%s: %d verifier steps, bound %d", m.Sig(), v.steps, bound)
	}
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("%s: verifier says %v, reference says %v", m.Sig(), err, refErr)
	}
	if err != nil {
		return
	}
	if v.maxStack != ref.maxStack {
		t.Errorf("%s: MaxStack %d, reference %d", m.Sig(), v.maxStack, ref.maxStack)
	}
	depths, err := Depths(m)
	if err != nil {
		t.Fatalf("%s: Depths: %v", m.Sig(), err)
	}
	for pc, d := range depths {
		want := int32(-1)
		if in := ref.in[pc]; in != nil {
			want = int32(len(in.stack))
		}
		if d != want {
			t.Errorf("%s: pc %d: Depths says %d, reference %d", m.Sig(), pc, d, want)
		}
	}
	for pc := -1; pc <= len(m.Code); pc++ {
		stack, locals, err := v.kindsAt(pc)
		want := ref.in[pc]
		if (err == nil) != (want != nil) {
			t.Fatalf("%s: pc %d: reached per verifier: %v (%v), per reference: %v",
				m.Sig(), pc, err == nil, err, want != nil)
		}
		if want == nil {
			continue
		}
		if len(stack) != len(want.stack) || (len(stack) > 0 && !reflect.DeepEqual(stack, want.stack)) {
			t.Errorf("%s: pc %d: stack %v, reference %v", m.Sig(), pc, stack, want.stack)
		}
		if len(locals) != len(want.locals) || (len(locals) > 0 && !reflect.DeepEqual(locals, want.locals)) {
			t.Errorf("%s: pc %d: locals %v, reference %v", m.Sig(), pc, locals, want.locals)
		}
	}
}

type vstate struct {
	stack  []TypeKind
	locals []TypeKind
}

func (s *vstate) clone() *vstate {
	return &vstate{
		stack:  append([]TypeKind(nil), s.stack...),
		locals: append([]TypeKind(nil), s.locals...),
	}
}

type refVerifier struct {
	m        *Method
	in       map[int]*vstate
	worklist []int
	maxStack int
}

func (v *refVerifier) errf(pc int, format string, args ...any) error {
	return fmt.Errorf("verify %s: pc %d (%v): %s",
		v.m.Sig(), pc, v.m.Code[pc].Op, fmt.Sprintf(format, args...))
}

func (v *refVerifier) run() error {
	if v.m.MaxLocals < v.m.ArgSlots() {
		return fmt.Errorf("verify %s: %d locals cannot hold %d arguments",
			v.m.Sig(), v.m.MaxLocals, v.m.ArgSlots())
	}
	entry := &vstate{locals: make([]TypeKind, v.m.MaxLocals)}
	idx := 0
	if !v.m.IsStatic() {
		entry.locals[idx] = Ref
		idx++
	}
	for _, pk := range v.m.Params {
		entry.locals[idx] = pk
		idx++
	}
	if err := v.merge(0, entry); err != nil {
		return err
	}
	for len(v.worklist) > 0 {
		pc := v.worklist[len(v.worklist)-1]
		v.worklist = v.worklist[:len(v.worklist)-1]
		if err := v.step(pc); err != nil {
			return err
		}
	}
	return nil
}

// merge joins a state into the recorded in-state of pc, queueing pc when
// anything changed.
func (v *refVerifier) merge(pc int, s *vstate) error {
	if pc < 0 || pc >= len(v.m.Code) {
		return fmt.Errorf("verify %s: branch to pc %d outside [0,%d)", v.m.Sig(), pc, len(v.m.Code))
	}
	if len(s.stack) > v.maxStack {
		v.maxStack = len(s.stack)
	}
	old := v.in[pc]
	if old == nil {
		v.in[pc] = s.clone()
		v.worklist = append(v.worklist, pc)
		return nil
	}
	if len(old.stack) != len(s.stack) {
		return fmt.Errorf("verify %s: pc %d: stack depth mismatch %d vs %d",
			v.m.Sig(), pc, len(old.stack), len(s.stack))
	}
	for i := range old.stack {
		if old.stack[i] != s.stack[i] {
			return fmt.Errorf("verify %s: pc %d: stack slot %d kind mismatch %v vs %v",
				v.m.Sig(), pc, i, old.stack[i], s.stack[i])
		}
	}
	changed := false
	for i := range old.locals {
		if old.locals[i] != s.locals[i] && old.locals[i] != Void {
			old.locals[i] = Void // conflicting kinds: local unusable past join
			changed = true
		}
	}
	if changed {
		v.worklist = append(v.worklist, pc)
	}
	return nil
}

func (v *refVerifier) step(pc int) error {
	s := v.in[pc].clone()
	bc := v.m.Code[pc]

	// Any instruction inside a protected range can transfer to its
	// handler with the current locals and a stack of one reference.
	for _, h := range v.m.Handlers {
		if pc >= h.From && pc < h.To {
			hs := &vstate{stack: []TypeKind{Ref}, locals: append([]TypeKind(nil), s.locals...)}
			if err := v.merge(h.Target, hs); err != nil {
				return err
			}
		}
	}

	pop := func(want TypeKind) error {
		if len(s.stack) == 0 {
			return v.errf(pc, "pop from empty stack")
		}
		got := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		if got != want {
			return v.errf(pc, "expected %v on stack, found %v", want, got)
		}
		return nil
	}
	popAny := func() (TypeKind, error) {
		if len(s.stack) == 0 {
			return Void, v.errf(pc, "pop from empty stack")
		}
		got := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		return got, nil
	}
	push := func(k TypeKind) {
		s.stack = append(s.stack, k)
		if len(s.stack) > v.maxStack {
			v.maxStack = len(s.stack)
		}
	}
	loadLocal := func(want TypeKind) error {
		i := int(bc.A)
		if i < 0 || i >= len(s.locals) {
			return v.errf(pc, "local %d out of range", i)
		}
		if s.locals[i] != want {
			return v.errf(pc, "local %d holds %v, want %v", i, s.locals[i], want)
		}
		push(want)
		return nil
	}
	storeLocal := func(want TypeKind) error {
		if err := pop(want); err != nil {
			return err
		}
		i := int(bc.A)
		if i < 0 || i >= len(s.locals) {
			return v.errf(pc, "local %d out of range", i)
		}
		s.locals[i] = want
		return nil
	}
	binary := func(k TypeKind) error {
		if err := pop(k); err != nil {
			return err
		}
		if err := pop(k); err != nil {
			return err
		}
		push(k)
		return nil
	}
	unary := func(k TypeKind) error {
		if err := pop(k); err != nil {
			return err
		}
		push(k)
		return nil
	}
	conv := func(from, to TypeKind) error {
		if err := pop(from); err != nil {
			return err
		}
		push(to)
		return nil
	}
	cmp := func(k TypeKind) error {
		if err := pop(k); err != nil {
			return err
		}
		if err := pop(k); err != nil {
			return err
		}
		push(Int)
		return nil
	}
	elemKindType := func() TypeKind {
		switch bc.Kind {
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

	var err error
	fallThrough := true

	switch bc.Op {
	case BCNop:
	case BCConstI:
		push(Int)
	case BCConstL:
		push(Long)
	case BCConstF:
		push(Float)
	case BCConstD:
		push(Double)
	case BCConstNull, BCConstStr:
		push(Ref)

	case BCLoadI:
		err = loadLocal(Int)
	case BCLoadL:
		err = loadLocal(Long)
	case BCLoadF:
		err = loadLocal(Float)
	case BCLoadD:
		err = loadLocal(Double)
	case BCLoadRef:
		err = loadLocal(Ref)
	case BCStoreI:
		err = storeLocal(Int)
	case BCStoreL:
		err = storeLocal(Long)
	case BCStoreF:
		err = storeLocal(Float)
	case BCStoreD:
		err = storeLocal(Double)
	case BCStoreRef:
		err = storeLocal(Ref)
	case BCInc:
		i := int(bc.A)
		if i < 0 || i >= len(s.locals) || s.locals[i] != Int {
			err = v.errf(pc, "iinc on non-int local %d", i)
		}

	case BCPop:
		_, err = popAny()
	case BCPop2:
		if _, err = popAny(); err == nil {
			_, err = popAny()
		}
	case BCDup:
		var k TypeKind
		if k, err = popAny(); err == nil {
			push(k)
			push(k)
		}
	case BCDupX1:
		var a, b TypeKind
		if a, err = popAny(); err == nil {
			if b, err = popAny(); err == nil {
				push(a)
				push(b)
				push(a)
			}
		}
	case BCDupX2:
		var a, b, c TypeKind
		if a, err = popAny(); err == nil {
			if b, err = popAny(); err == nil {
				if c, err = popAny(); err == nil {
					push(a)
					push(c)
					push(b)
					push(a)
				}
			}
		}
	case BCDup2:
		var a, b TypeKind
		if a, err = popAny(); err == nil {
			if b, err = popAny(); err == nil {
				push(b)
				push(a)
				push(b)
				push(a)
			}
		}
	case BCSwap:
		var a, b TypeKind
		if a, err = popAny(); err == nil {
			if b, err = popAny(); err == nil {
				push(a)
				push(b)
			}
		}

	case BCAddI, BCSubI, BCMulI, BCDivI, BCRemI, BCAndI, BCOrI, BCXorI,
		BCShlI, BCShrI, BCUShrI:
		err = binary(Int)
	case BCNegI:
		err = unary(Int)
	case BCAddL, BCSubL, BCMulL, BCDivL, BCRemL, BCAndL, BCOrL, BCXorL:
		err = binary(Long)
	case BCShlL, BCShrL, BCUShrL:
		// Shift amount is an int.
		if err = pop(Int); err == nil {
			err = unary(Long)
		}
	case BCNegL:
		err = unary(Long)
	case BCCmpL:
		err = cmp(Long)
	case BCAddF, BCSubF, BCMulF, BCDivF, BCRemF:
		err = binary(Float)
	case BCNegF:
		err = unary(Float)
	case BCCmpFL, BCCmpFG:
		err = cmp(Float)
	case BCAddD, BCSubD, BCMulD, BCDivD, BCRemD:
		err = binary(Double)
	case BCNegD:
		err = unary(Double)
	case BCCmpDL, BCCmpDG:
		err = cmp(Double)

	case BCI2L:
		err = conv(Int, Long)
	case BCI2F:
		err = conv(Int, Float)
	case BCI2D:
		err = conv(Int, Double)
	case BCL2I:
		err = conv(Long, Int)
	case BCL2F:
		err = conv(Long, Float)
	case BCL2D:
		err = conv(Long, Double)
	case BCF2I:
		err = conv(Float, Int)
	case BCF2L:
		err = conv(Float, Long)
	case BCF2D:
		err = conv(Float, Double)
	case BCD2I:
		err = conv(Double, Int)
	case BCD2L:
		err = conv(Double, Long)
	case BCD2F:
		err = conv(Double, Float)
	case BCI2B, BCI2C, BCI2S:
		err = unary(Int)

	case BCGoto:
		fallThrough = false
		err = v.merge(int(bc.Target), s)
	case BCIfEQ, BCIfNE, BCIfLT, BCIfGE, BCIfGT, BCIfLE:
		if err = pop(Int); err == nil {
			err = v.merge(int(bc.Target), s)
		}
	case BCIfICmpEQ, BCIfICmpNE, BCIfICmpLT, BCIfICmpGE, BCIfICmpGT, BCIfICmpLE:
		if err = pop(Int); err == nil {
			if err = pop(Int); err == nil {
				err = v.merge(int(bc.Target), s)
			}
		}
	case BCIfACmpEQ, BCIfACmpNE:
		if err = pop(Ref); err == nil {
			if err = pop(Ref); err == nil {
				err = v.merge(int(bc.Target), s)
			}
		}
	case BCIfNull, BCIfNonNull:
		if err = pop(Ref); err == nil {
			err = v.merge(int(bc.Target), s)
		}
	case BCTableSwitch, BCLookupSwitch:
		fallThrough = false
		sw := bc.Switch(v.m.Pool)
		if sw == nil {
			err = v.errf(pc, "nil switch ref")
			break
		}
		if bc.Op == BCLookupSwitch && len(sw.Keys) != len(sw.Targets) {
			err = v.errf(pc, "%d keys vs %d targets", len(sw.Keys), len(sw.Targets))
			break
		}
		if err = pop(Int); err == nil {
			if err = v.merge(int(bc.Target), s); err == nil {
				for _, t := range sw.Targets {
					if err = v.merge(int(t), s); err != nil {
						break
					}
				}
			}
		}

	case BCGetField:
		if bc.Field(v.m.Pool) == nil {
			err = v.errf(pc, "nil field ref")
			break
		}
		if err = pop(Ref); err == nil {
			push(bc.Field(v.m.Pool).Type)
		}
	case BCPutField:
		if bc.Field(v.m.Pool) == nil {
			err = v.errf(pc, "nil field ref")
			break
		}
		if err = pop(bc.Field(v.m.Pool).Type); err == nil {
			err = pop(Ref)
		}
	case BCGetStatic:
		if bc.Field(v.m.Pool) == nil {
			err = v.errf(pc, "nil field ref")
			break
		}
		push(bc.Field(v.m.Pool).Type)
	case BCPutStatic:
		if bc.Field(v.m.Pool) == nil {
			err = v.errf(pc, "nil field ref")
			break
		}
		err = pop(bc.Field(v.m.Pool).Type)

	case BCNewArray, BCANewArray:
		if bc.Op == BCANewArray && bc.Class(v.m.Pool) == nil {
			err = v.errf(pc, "nil class ref")
			break
		}
		if err = pop(Int); err == nil {
			push(Ref)
		}
	case BCALoad:
		if err = pop(Int); err == nil {
			if err = pop(Ref); err == nil {
				push(elemKindType())
			}
		}
	case BCAStore:
		if err = pop(elemKindType()); err == nil {
			if err = pop(Int); err == nil {
				err = pop(Ref)
			}
		}
	case BCArrayLen:
		if err = pop(Ref); err == nil {
			push(Int)
		}

	case BCNew:
		if bc.Class(v.m.Pool) == nil {
			err = v.errf(pc, "nil class ref")
			break
		}
		push(Ref)
	case BCInvokeVirtual, BCInvokeSpecial, BCInvokeStatic, BCInvokeInterface:
		if bc.Method(v.m.Pool) == nil {
			err = v.errf(pc, "nil method ref")
			break
		}
		callee := bc.Method(v.m.Pool)
		for i := len(callee.Params) - 1; i >= 0 && err == nil; i-- {
			err = pop(callee.Params[i])
		}
		if err == nil && !callee.IsStatic() {
			err = pop(Ref)
		}
		if err == nil && callee.Ret != Void {
			push(callee.Ret)
		}
	case BCInstanceOf:
		if bc.Class(v.m.Pool) == nil {
			err = v.errf(pc, "nil class ref")
			break
		}
		if err = pop(Ref); err == nil {
			push(Int)
		}
	case BCCheckCast:
		if bc.Class(v.m.Pool) == nil {
			err = v.errf(pc, "nil class ref")
			break
		}
		if err = pop(Ref); err == nil {
			push(Ref)
		}

	case BCReturn:
		fallThrough = false
		err = pop(v.m.Ret)
		if err == nil && len(s.stack) != 0 {
			// JVM permits residue; we keep it strict to catch builder bugs.
			err = v.errf(pc, "stack not empty at return (%d residue)", len(s.stack))
		}
	case BCReturnVoid:
		fallThrough = false
		if len(s.stack) != 0 {
			err = v.errf(pc, "stack not empty at return (%d residue)", len(s.stack))
		}
	case BCMonitorEnter, BCMonitorExit:
		err = pop(Ref)
	case BCThrow:
		fallThrough = false
		err = pop(Ref)

	default:
		err = v.errf(pc, "unhandled opcode")
	}
	if err != nil {
		return err
	}
	if fallThrough {
		if pc+1 >= len(v.m.Code) {
			return v.errf(pc, "control falls off the end")
		}
		return v.merge(pc+1, s)
	}
	return nil
}
