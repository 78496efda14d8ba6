package classfile

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func TestProgramBasics(t *testing.T) {
	p := NewProgram()
	if p.Object == nil || p.Lookup("java/lang/Object") != p.Object {
		t.Fatal("Object root missing")
	}
	c := p.NewClass("Point", nil)
	if c.Super != p.Object {
		t.Error("default super should be Object")
	}
	if p.Lookup("Point") != c {
		t.Error("Lookup failed")
	}
}

func TestDuplicateClassPanics(t *testing.T) {
	p := NewProgram()
	p.NewClass("A", nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate class")
		}
	}()
	p.NewClass("A", nil)
}

func buildTrivialMain(p *Program, c *Class) *Method {
	m := c.NewMethod("main", FlagStatic, Void)
	a := m.Asm()
	a.RetVoid()
	a.MustBuild()
	return m
}

func TestFieldSlotAssignment(t *testing.T) {
	p := NewProgram()
	a := p.NewClass("A", nil)
	fa1 := a.NewField("x", Int)
	fa2 := a.NewField("y", Double)
	b := p.NewClass("B", a)
	fb1 := b.NewField("z", Ref)
	sa := a.NewStaticField("count", Int)
	sb := b.NewStaticField("total", Long)
	buildTrivialMain(p, a)
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	if fa1.Slot != 0 || fa2.Slot != 1 {
		t.Errorf("A slots: %d, %d", fa1.Slot, fa2.Slot)
	}
	if fb1.Slot != 2 {
		t.Errorf("B.z slot: %d (must follow super's)", fb1.Slot)
	}
	if a.InstanceSlots != 2 || b.InstanceSlots != 3 {
		t.Errorf("instance slots: A=%d B=%d", a.InstanceSlots, b.InstanceSlots)
	}
	if sa.Slot == sb.Slot {
		t.Error("static slots collide")
	}
	if p.StaticSlots() != 2 {
		t.Errorf("StaticSlots: %d", p.StaticSlots())
	}
}

func TestVTableOverride(t *testing.T) {
	p := NewProgram()
	a := p.NewClass("Animal", nil)
	speak := a.NewMethod("speak", 0, Int)
	sa := speak.Asm()
	sa.ConstI(1)
	sa.Ret()
	sa.MustBuild()

	b := p.NewClass("Dog", a)
	bark := b.NewMethod("speak", 0, Int)
	ba := bark.Asm()
	ba.ConstI(2)
	ba.Ret()
	ba.MustBuild()

	extra := b.NewMethod("fetch", 0, Void)
	ea := extra.Asm()
	ea.RetVoid()
	ea.MustBuild()

	buildTrivialMain(p, a)
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	if speak.VSlot != bark.VSlot {
		t.Errorf("override must share slot: %d vs %d", speak.VSlot, bark.VSlot)
	}
	if a.VTable[speak.VSlot] != speak || b.VTable[bark.VSlot] != bark {
		t.Error("vtable entries wrong")
	}
	if extra.VSlot == bark.VSlot {
		t.Error("new virtual must get a fresh slot")
	}
	if b.ITable == nil {
		t.Error("concrete class should have an itable (possibly empty)")
	}
}

func TestInterfaceResolution(t *testing.T) {
	p := NewProgram()
	iface := p.NewInterface("Runnable")
	run := iface.NewMethod("run", FlagAbstract, Void)

	c := p.NewClass("Task", nil)
	c.AddInterface(iface)
	impl := c.NewMethod("run", 0, Void)
	ia := impl.Asm()
	ia.RetVoid()
	ia.MustBuild()

	buildTrivialMain(p, c)
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	if run.IfaceID < 0 {
		t.Fatal("interface method got no IfaceID")
	}
	if c.ITable[run.IfaceID] != impl {
		t.Errorf("itable should map %d to %s", run.IfaceID, impl.Sig())
	}
	if !c.IsSubclassOf(iface) {
		t.Error("Task should be subtype of Runnable")
	}
	if p.Object.IsSubclassOf(iface) {
		t.Error("Object must not be subtype of Runnable")
	}
}

func TestInheritanceCycleDetected(t *testing.T) {
	p := NewProgram()
	a := p.NewClass("A", nil)
	b := p.NewClass("B", a)
	a.Super = b // force a cycle
	if err := p.Resolve(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("expected cycle error, got %v", err)
	}
}

func TestAsmLabelsAndLoop(t *testing.T) {
	p := NewProgram()
	c := p.NewClass("Loop", nil)
	m := c.NewMethod("sum", FlagStatic, Int, Int)
	a := m.Asm()
	// int s = 0; for (int i = 0; i < n; i++) s += i; return s;
	loop, done := a.NewLabel(), a.NewLabel()
	a.ConstI(0)
	a.StoreI(1) // s
	a.ConstI(0)
	a.StoreI(2) // i
	a.Bind(loop)
	a.LoadI(2)
	a.LoadI(0)
	a.IfICmpGE(done)
	a.LoadI(1)
	a.LoadI(2)
	a.AddI()
	a.StoreI(1)
	a.Inc(2, 1)
	a.Goto(loop)
	a.Bind(done)
	a.LoadI(1)
	a.Ret()
	if err := a.Build(); err != nil {
		t.Fatal(err)
	}
	if m.MaxLocals != 3 {
		t.Errorf("MaxLocals: %d", m.MaxLocals)
	}
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	if m.MaxStack != 2 {
		t.Errorf("MaxStack: %d want 2", m.MaxStack)
	}
}

func TestAsmRejectsUnboundLabel(t *testing.T) {
	p := NewProgram()
	c := p.NewClass("Bad", nil)
	m := c.NewMethod("f", FlagStatic, Void)
	a := m.Asm()
	l := a.NewLabel()
	a.Goto(l)
	if err := a.Build(); err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Errorf("expected unbound-label error, got %v", err)
	}
	_ = p
}

// TestAsmRejectsBadLabels: a label that is nil, or that another method's
// assembler made, fails the body it is used in — at Build, by name —
// instead of passing Build and crashing Resolve (nil) or silently
// branching to whatever sits at that index (foreign and in range).
func TestAsmRejectsBadLabels(t *testing.T) {
	const sig = "Bad.f(int,ref)void"
	for _, tc := range []struct {
		name string
		emit func(a *Asm, ok, foreign *Label)
		want string
	}{
		{"goto nil", func(a *Asm, _, _ *Label) { a.Goto(nil) }, "asm " + sig + ": nil label"},
		{"if nil", func(a *Asm, _, _ *Label) { a.LoadI(0).IfEQ(nil) }, "asm " + sig + ": nil label"},
		{"if_icmp nil", func(a *Asm, _, _ *Label) { a.LoadI(0).LoadI(0).IfICmpLT(nil) }, "asm " + sig + ": nil label"},
		{"if_acmp nil", func(a *Asm, _, _ *Label) { a.LoadRef(1).LoadRef(1).IfACmpNE(nil) }, "asm " + sig + ": nil label"},
		{"ifnull nil", func(a *Asm, _, _ *Label) { a.LoadRef(1).IfNonNull(nil) }, "asm " + sig + ": nil label"},
		{"tableswitch nil default", func(a *Asm, ok, _ *Label) { a.LoadI(0).TableSwitch(0, nil, ok) }, "asm " + sig + ": nil label"},
		{"tableswitch nil target", func(a *Asm, ok, _ *Label) { a.LoadI(0).TableSwitch(0, ok, nil) }, "asm " + sig + ": nil label"},
		{"lookupswitch nil default", func(a *Asm, ok, _ *Label) {
			a.LoadI(0).LookupSwitch(nil, []int32{1}, []*Label{ok})
		}, "asm " + sig + ": nil label"},
		{"lookupswitch nil target", func(a *Asm, ok, _ *Label) {
			a.LoadI(0).LookupSwitch(ok, []int32{1, 2}, []*Label{ok, nil})
		}, "asm " + sig + ": nil label"},
		{"bind nil", func(a *Asm, _, _ *Label) { a.Bind(nil) }, "asm " + sig + ": nil label"},
		{"catch nil", func(a *Asm, ok, _ *Label) { a.Catch(ok, nil, ok, nil) }, "asm " + sig + ": nil label"},
		{"foreign goto", func(a *Asm, _, foreign *Label) { a.Goto(foreign) },
			"asm " + sig + ": pc 0: label L0 belongs to Bad.other()void"},
		{"foreign switch target", func(a *Asm, ok, foreign *Label) { a.LoadI(0).TableSwitch(0, ok, ok, foreign) },
			"asm " + sig + ": pc 1: label L0 belongs to Bad.other()void"},
		{"foreign bind", func(a *Asm, _, foreign *Label) { a.Bind(foreign) },
			"asm " + sig + ": label L0 belongs to Bad.other()void"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProgram()
			c := p.NewClass("Bad", nil)
			// The foreign label is bound at pc 0 of a three-instruction
			// body, so it is in range of any body it strays into.
			oa := c.NewMethod("other", FlagStatic, Void).Asm()
			foreign := oa.NewLabel()
			oa.Bind(foreign).ConstI(0).Pop().RetVoid().MustBuild()

			a := c.NewMethod("f", FlagStatic, Void, Int, Ref).Asm()
			ok := a.NewLabel()
			tc.emit(a, ok, foreign)
			a.Bind(ok).RetVoid()
			err := a.Build()
			if err == nil {
				t.Fatalf("Build accepted it (Resolve: %v)", p.Resolve())
			}
			if err.Error() != tc.want {
				t.Errorf("Build error %q, want %q", err, tc.want)
			}
		})
	}
}

// TestAsmRejectsNilOperands: every emitter that takes a *Field, *Method
// or *Class fails the body at Build when handed nil, by name, like a nil
// label. The field and invoke rows dereferenced the operand inside the
// emitter before this test existed; the class rows passed Build and were
// refused only by Resolve.
func TestAsmRejectsNilOperands(t *testing.T) {
	const sig = "Bad.f()void"
	for _, tc := range []struct {
		name string
		emit func(a *Asm)
		want string
	}{
		{"getfield", func(a *Asm) { a.GetField(nil) }, "getfield: nil field"},
		{"putfield", func(a *Asm) { a.PutField(nil) }, "putfield: nil field"},
		{"getstatic", func(a *Asm) { a.GetStatic(nil) }, "getstatic: nil field"},
		{"putstatic", func(a *Asm) { a.PutStatic(nil) }, "putstatic: nil field"},
		{"invokevirtual", func(a *Asm) { a.InvokeVirtual(nil) }, "invokevirtual: nil method"},
		{"invokespecial", func(a *Asm) { a.InvokeSpecial(nil) }, "invokespecial: nil method"},
		{"invokestatic", func(a *Asm) { a.InvokeStatic(nil) }, "invokestatic: nil method"},
		{"invokeinterface", func(a *Asm) { a.InvokeInterface(nil) }, "invokeinterface: nil method"},
		{"new", func(a *Asm) { a.New(nil) }, "new: nil class"},
		{"anewarray", func(a *Asm) { a.ANewArray(nil) }, "anewarray: nil class"},
		{"instanceof", func(a *Asm) { a.InstanceOf(nil) }, "instanceof: nil class"},
		{"checkcast", func(a *Asm) { a.CheckCast(nil) }, "checkcast: nil class"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProgram()
			a := p.NewClass("Bad", nil).NewMethod("f", FlagStatic, Void).Asm()
			tc.emit(a)
			a.RetVoid()
			err := a.Build()
			if err == nil {
				t.Fatalf("Build accepted it (Resolve: %v)", p.Resolve())
			}
			if want := "asm " + sig + ": " + tc.want; err.Error() != want {
				t.Errorf("Build error %q, want %q", err, want)
			}
		})
	}
}

// TestAsmLabelMessages pins the three label errors that predate the
// fix-up list, byte for byte.
func TestAsmLabelMessages(t *testing.T) {
	newAsm := func() *Asm {
		return NewProgram().NewClass("Bad", nil).NewMethod("f", FlagStatic, Void).Asm()
	}
	a := newAsm()
	a.ConstI(0)
	l := a.NewLabel()
	a.Bind(l).Bind(l).RetVoid()
	if err := a.Build(); err == nil || err.Error() != "asm Bad.f()void: label L1 bound twice" {
		t.Errorf("bound twice: %v", err)
	}
	a = newAsm()
	a.ConstI(0).Goto(a.NewLabel())
	if err := a.Build(); err == nil || err.Error() != "asm Bad.f()void: pc 1: unbound label L1" {
		t.Errorf("unbound: %v", err)
	}
	// Out of range takes a label bound past this body's end, which only
	// another assembler's label can be.
	long := newAsm()
	far := long.NewLabel()
	long.ConstI(0).ConstI(0).ConstI(0).Bind(far).RetVoid().MustBuild()
	a = newAsm()
	a.Goto(far)
	if err := a.Build(); err == nil || err.Error() != "asm Bad.f()void: pc 0: label L0 out of range" {
		t.Errorf("out of range: %v", err)
	}
}

// TestVerifyRejectsOutOfRangeTarget: a hand-assigned body (no assembler
// checked it) whose branch leaves the method is a verify error naming
// the target — from the structural pass when it is no index of the body
// at all, from the verifier when a path takes a branch to the end.
func TestVerifyRejectsOutOfRangeTarget(t *testing.T) {
	for _, target := range []int32{-1, 2, 1 << 20} {
		p := NewProgram()
		m := p.NewClass("Hand", nil).NewMethod("f", FlagStatic, Void)
		m.Code = []BC{{Op: BCGoto, Target: target}, {Op: BCReturnVoid}}
		want := fmt.Sprintf("verify Hand.f()void: pc 0 (goto): target %d outside [0,2]", target)
		if target == 2 {
			want = "verify Hand.f()void: branch to pc 2 outside [0,2)"
		}
		if err := p.Resolve(); err == nil || err.Error() != want {
			t.Errorf("target %d: %v, want %q", target, err, want)
		}
	}
}

// TestResolveRejectsMalformedUnreachableCode: the verifier checks what a
// path reaches and the JIT lowers everything, so Resolve holds every
// instruction to its opcode's operand and every index to the body —
// behind a goto as in front of one. Each row passed Resolve before the
// structural pass and (the operands) crashed jit.lower.
func TestResolveRejectsMalformedUnreachableCode(t *testing.T) {
	const sig = "verify Bad.f()void: "
	for _, tc := range []struct {
		name string
		tail func(a *Asm, m *Method) // emitted after a goto over it
		hand func(m *Method)         // applied to the built body
		want string
	}{
		{"new nil", func(a *Asm, _ *Method) { a.ConstI(0) },
			func(m *Method) { m.Code[1] = BC{Op: BCNew, Operand: (*Class)(nil)} }, sig + "pc 1 (new): nil class ref"},
		{"anewarray nil", func(a *Asm, _ *Method) { a.ConstI(0) },
			func(m *Method) { m.Code[1] = BC{Op: BCANewArray, Kind: refElem, Operand: (*Class)(nil)} },
			sig + "pc 1 (anewarray): nil class ref"},
		{"getfield nil", func(a *Asm, _ *Method) { a.ConstI(0) },
			func(m *Method) { m.Code[1] = BC{Op: BCGetField} }, sig + "pc 1 (getfield): nil field ref"},
		{"invoke nil", func(a *Asm, _ *Method) { a.ConstI(0) },
			func(m *Method) { m.Code[1] = BC{Op: BCInvokeStatic, Operand: (*Method)(nil)} },
			sig + "pc 1 (invokestatic): nil method ref"},
		{"wrong operand type", func(a *Asm, m *Method) { a.New(m.Class) },
			func(m *Method) { m.Code[1].Operand = m }, sig + "pc 1 (new): nil class ref"},
		{"string without one", func(a *Asm, _ *Method) { a.Str("s").Pop() },
			func(m *Method) { m.Code[1].Operand = nil }, sig + "pc 1 (ldc_str): no string operand"},
		{"switch without table", func(a *Asm, _ *Method) { a.ConstI(0) },
			func(m *Method) { m.Code[1] = BC{Op: BCTableSwitch} }, sig + "pc 1 (tableswitch): nil switch ref"},
		{"table target", func(a *Asm, _ *Method) { a.ConstI(0) },
			func(m *Method) { m.Code[1] = BC{Op: BCTableSwitch, Operand: &Switch{Targets: []int32{0, 9}}} },
			sig + "pc 1 (tableswitch): table target 9 outside [0,3]"},
		{"no such opcode", func(a *Asm, _ *Method) { a.ConstI(0) },
			func(m *Method) { m.Code[1].Op = NumBCOps }, sig + fmt.Sprintf("pc 1 (bc%d): unhandled opcode", NumBCOps)},
		{"handler", func(a *Asm, _ *Method) { a.ConstI(0) },
			func(m *Method) { m.Handlers = []Handler{{From: 0, To: 4, Target: 2}} },
			sig + "handler 0 [0,4)->2 outside [0,3]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProgram()
			m := p.NewClass("Bad", nil).NewMethod("f", FlagStatic, Void)
			a := m.Asm()
			l := a.NewLabel()
			a.Goto(l)
			tc.tail(a, m)
			a.Bind(l).RetVoid()
			if err := a.Build(); err != nil {
				t.Fatal(err)
			}
			if tc.hand != nil {
				tc.hand(m)
			}
			if err := p.Resolve(); err == nil || err.Error() != tc.want {
				t.Errorf("Resolve = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestBCSize: an instruction is at most 48 bytes and carries no label —
// nothing reachable from a BC's type is a *Label.
func TestBCSize(t *testing.T) {
	if sz := unsafe.Sizeof(BC{}); sz > 48 {
		t.Errorf("BC is %d bytes, budget 48", sz)
	}
	label := reflect.TypeOf(&Label{})
	seen := map[reflect.Type]bool{}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		if ty == label {
			t.Errorf("%s is a *Label", path)
		}
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Map:
			walk(ty.Key(), path+"[key]")
			walk(ty.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		}
	}
	walk(reflect.TypeOf(BC{}), "BC")
	// The operand slot is an interface, which the type walk cannot see
	// into: walk what it is documented to hold.
	for _, operand := range []any{"", &Field{}, &Method{}, &Class{}, &Switch{}} {
		walk(reflect.TypeOf(operand), "BC.Operand")
	}
}

func TestAsmRejectsFallOffEnd(t *testing.T) {
	p := NewProgram()
	c := p.NewClass("Bad2", nil)
	m := c.NewMethod("f", FlagStatic, Void)
	a := m.Asm()
	a.ConstI(1)
	a.Pop()
	if err := a.Build(); err == nil || !strings.Contains(err.Error(), "falls off") {
		t.Errorf("expected fall-off error, got %v", err)
	}
	_ = p
}

func TestVerifyCatchesKindMismatch(t *testing.T) {
	p := NewProgram()
	c := p.NewClass("KBad", nil)
	m := c.NewMethod("f", FlagStatic, Void)
	a := m.Asm()
	a.ConstI(1)
	a.ConstD(2.0)
	a.AddI() // int add on (int, double): must be rejected
	a.Pop()
	a.RetVoid()
	a.MustBuild()
	if err := p.Resolve(); err == nil || !strings.Contains(err.Error(), "expected int") {
		t.Errorf("expected kind-mismatch error, got %v", err)
	}
}

func TestVerifyCatchesStackDepthMismatchAtJoin(t *testing.T) {
	p := NewProgram()
	c := p.NewClass("JBad", nil)
	m := c.NewMethod("f", FlagStatic, Void, Int)
	a := m.Asm()
	other, join := a.NewLabel(), a.NewLabel()
	a.LoadI(0)
	a.IfEQ(other)
	a.ConstI(1) // depth 1 on this path
	a.Goto(join)
	a.Bind(other) // depth 0 on this path
	a.Bind(join)
	a.Pop()
	a.RetVoid()
	a.MustBuild()
	if err := p.Resolve(); err == nil || !strings.Contains(err.Error(), "depth mismatch") {
		t.Errorf("expected depth-mismatch error, got %v", err)
	}
}

func TestVerifyCatchesLocalKindConflictUse(t *testing.T) {
	p := NewProgram()
	c := p.NewClass("LBad", nil)
	m := c.NewMethod("f", FlagStatic, Int, Int)
	a := m.Asm()
	other, join := a.NewLabel(), a.NewLabel()
	a.LoadI(0)
	a.IfEQ(other)
	a.ConstI(7)
	a.StoreI(1)
	a.Goto(join)
	a.Bind(other)
	a.ConstD(1.5)
	a.StoreD(1)
	a.Bind(join)
	a.LoadI(1) // local 1 kind differs across paths: unusable
	a.Ret()
	a.MustBuild()
	if err := p.Resolve(); err == nil {
		t.Error("expected verifier error for conflicted local use")
	}
}

// TestKindsAt: the type state the verifier merged at one bytecode index,
// on demand — a local whose paths disagree reads Void, an index no path
// reaches is an error, and the method is not written to.
func TestKindsAt(t *testing.T) {
	p := NewProgram()
	m := p.NewClass("Kinds", nil).NewMethod("f", FlagStatic, Int, Int, Ref)
	a := m.Asm()
	other, join := a.NewLabel(), a.NewLabel()
	a.LoadI(0) // 0
	a.IfEQ(other)
	a.ConstI(7)
	a.StoreI(2)
	a.Goto(join)
	a.Bind(other)
	a.ConstD(1.5) // 5
	a.StoreD(2)
	a.Bind(join)
	a.LoadRef(1) // 7: local 2 is an int down one path, a double down the other
	a.Pop()      // 8: a reference on the stack
	a.LoadI(0)
	a.Ret()
	a.MustBuild()
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	maxStack := m.MaxStack

	stack, locals, err := KindsAt(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := []TypeKind{Ref}; !reflect.DeepEqual(stack, want) {
		t.Errorf("stack at 8 = %v, want %v", stack, want)
	}
	if want := []TypeKind{Int, Ref, Void}; !reflect.DeepEqual(locals, want) {
		t.Errorf("locals at 8 = %v, want %v", locals, want)
	}
	if stack, _, err := KindsAt(m, 0); err != nil || len(stack) != 0 {
		t.Errorf("entry state: stack %v, err %v", stack, err)
	}
	if _, _, err := KindsAt(m, len(m.Code)); err == nil {
		t.Error("an index past the method's end has a type state")
	}
	if m.MaxStack != maxStack {
		t.Errorf("KindsAt wrote MaxStack: %d -> %d", maxStack, m.MaxStack)
	}
}

func TestVerifyMethodCallShapes(t *testing.T) {
	p := NewProgram()
	c := p.NewClass("Calls", nil)
	callee := c.NewMethod("mix", FlagStatic, Double, Int, Double)
	ca := callee.Asm()
	ca.LoadI(0)
	ca.I2D()
	ca.LoadD(1)
	ca.AddD()
	ca.Ret()
	ca.MustBuild()

	m := c.NewMethod("main", FlagStatic, Void)
	a := m.Asm()
	a.ConstI(2)
	a.ConstD(3.5)
	a.InvokeStatic(callee)
	a.Pop()
	a.RetVoid()
	a.MustBuild()
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	if m.MaxStack != 2 {
		t.Errorf("MaxStack: got %d want 2", m.MaxStack)
	}
}

func TestVerifyRejectsBadCallArgs(t *testing.T) {
	p := NewProgram()
	c := p.NewClass("Calls2", nil)
	callee := c.NewMethod("want2", FlagStatic, Void, Int, Int)
	ca := callee.Asm()
	ca.RetVoid()
	ca.MustBuild()
	m := c.NewMethod("main", FlagStatic, Void)
	a := m.Asm()
	a.ConstI(1)
	a.InvokeStatic(callee) // one arg missing
	a.RetVoid()
	a.MustBuild()
	if err := p.Resolve(); err == nil {
		t.Error("expected arity error")
	}
}

func TestSwitchVerification(t *testing.T) {
	p := NewProgram()
	c := p.NewClass("Sw", nil)
	m := c.NewMethod("pick", FlagStatic, Int, Int)
	a := m.Asm()
	c0, c1, def := a.NewLabel(), a.NewLabel(), a.NewLabel()
	a.LoadI(0)
	a.TableSwitch(0, def, c0, c1)
	a.Bind(c0)
	a.ConstI(100)
	a.Ret()
	a.Bind(c1)
	a.ConstI(200)
	a.Ret()
	a.Bind(def)
	a.ConstI(-1)
	a.Ret()
	a.MustBuild()
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
}

func TestLookupSwitchKeyOrderEnforced(t *testing.T) {
	p := NewProgram()
	c := p.NewClass("Sw2", nil)
	m := c.NewMethod("pick", FlagStatic, Void, Int)
	a := m.Asm()
	l, def := a.NewLabel(), a.NewLabel()
	a.Bind(l)
	a.Bind(def)
	a.LoadI(0)
	a.LookupSwitch(def, []int32{5, 3}, []*Label{l, l}) // unordered
	a.RetVoid()
	if err := a.Build(); err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Errorf("expected key-order error, got %v", err)
	}
	_ = p
}

func TestMethodAnnotations(t *testing.T) {
	p := NewProgram()
	c := p.NewClass("Ann", nil)
	m := c.NewMethod("hot", FlagStatic, Void).Annotate(AnnFloatIntensive)
	a := m.Asm()
	a.RetVoid()
	a.MustBuild()
	if !m.Annotations[AnnFloatIntensive] {
		t.Error("annotation lost")
	}
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
}

func TestNativeMethodTagDefaults(t *testing.T) {
	p := NewProgram()
	c := p.NewClass("Sys", nil)
	n := c.NewMethod("nanoTime", FlagStatic|FlagNative, Long)
	buildTrivialMain(p, c)
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	if n.NativeTag != "Sys.nanoTime" {
		t.Errorf("NativeTag: %q", n.NativeTag)
	}
}

func TestGlobalMethodIDsDense(t *testing.T) {
	p := NewProgram()
	c := p.NewClass("M", nil)
	for i := 0; i < 5; i++ {
		m := c.NewMethod("f"+string(rune('0'+i)), FlagStatic, Void)
		a := m.Asm()
		a.RetVoid()
		a.MustBuild()
	}
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	for i, m := range p.Methods() {
		if m.ID != i {
			t.Errorf("method %s has ID %d at index %d", m.Sig(), m.ID, i)
		}
		if p.MethodByID(i) != m {
			t.Errorf("MethodByID(%d) mismatch", i)
		}
	}
}

func TestResolveTwiceFails(t *testing.T) {
	p := NewProgram()
	c := p.NewClass("X", nil)
	buildTrivialMain(p, c)
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	if err := p.Resolve(); err == nil {
		t.Error("second Resolve should fail")
	}
}

func TestDisassemble(t *testing.T) {
	p := NewProgram()
	c := p.NewClass("D", nil)
	f := c.NewField("x", Int)
	m := c.NewMethod("go", FlagStatic, Int, Ref)
	a := m.Asm()
	s0, e0, h0 := a.NewLabel(), a.NewLabel(), a.NewLabel()
	a.Bind(s0)
	a.LoadRef(0)
	a.GetField(f)
	a.Bind(e0)
	a.Ret()
	a.Bind(h0)
	a.Pop()
	a.ConstI(-1)
	a.Ret()
	a.Catch(s0, e0, h0, nil)
	a.MustBuild()
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	out := m.Disassemble()
	for _, want := range []string{"D.go(ref)int", "getfield", "D.x", "exception table", "-> @3"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
	n := c.NewMethod("nat", FlagStatic|FlagNative, Void)
	n.NativeTag = "D.nat"
	if !strings.Contains(n.Disassemble(), "[native D.nat]") {
		t.Error("native disassembly wrong")
	}
}
