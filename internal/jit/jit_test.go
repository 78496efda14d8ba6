package jit

import (
	"strings"
	"testing"

	"herajvm/internal/classfile"
	"herajvm/internal/isa"
	"herajvm/internal/mem"
)

func newCompilers(t *testing.T) (*Compiler, *Compiler, *mem.Main) {
	t.Helper()
	main := mem.NewMain(4 << 20)
	l := mem.NewLayout(main.Size(), 4096)
	ppeRegion, err := l.Carve("ppe-code", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	speRegion, err := l.Carve("spe-code", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return NewCompiler(isa.PPE, main, ppeRegion), NewCompiler(isa.SPE, main, speRegion), main
}

func loopMethod(t *testing.T) (*classfile.Program, *classfile.Method) {
	t.Helper()
	p := classfile.NewProgram()
	c := p.NewClass("Loop", nil)
	m := c.NewMethod("sum", classfile.FlagStatic, classfile.Int, classfile.Int)
	a := m.Asm()
	loop, done := a.NewLabel(), a.NewLabel()
	a.ConstI(0)
	a.StoreI(1)
	a.ConstI(0)
	a.StoreI(2)
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
	a.MustBuild()
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	return p, m
}

func TestCompileLoopBothTargets(t *testing.T) {
	ppe, spe, _ := newCompilers(t)
	_, m := loopMethod(t)
	for _, c := range []*Compiler{ppe, spe} {
		cm, err := c.Compile(m)
		if err != nil {
			t.Fatalf("%v: %v", c.Target(), err)
		}
		if len(cm.Code) != len(m.Code) {
			t.Errorf("%v: %d machine instrs from %d bytecodes", c.Target(), len(cm.Code), len(m.Code))
		}
		if cm.Size == 0 || cm.Addr == 0 {
			t.Errorf("%v: unsized or unplaced code", c.Target())
		}
	}
}

func TestBranchTargetsResolved(t *testing.T) {
	_, spe, _ := newCompilers(t)
	_, m := loopMethod(t)
	cm, err := spe.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range cm.Code {
		switch in.Op {
		case isa.OpGoto:
			if in.A < 0 || int(in.A) >= len(cm.Code) {
				t.Errorf("instr %d: goto target %d out of range", i, in.A)
			}
		case isa.OpIf, isa.OpIfCmpI, isa.OpIfCmpRef, isa.OpIfNull:
			if in.B < 0 || int(in.B) >= len(cm.Code) {
				t.Errorf("instr %d: branch target %d out of range", i, in.B)
			}
		}
	}
	// The backedge goto must point at the loop header (instruction 4:
	// after the 4 init instructions).
	var sawBackedge bool
	for i, in := range cm.Code {
		if in.Op == isa.OpGoto && int(in.A) < i {
			sawBackedge = true
		}
	}
	if !sawBackedge {
		t.Error("loop should compile to a backward goto")
	}
}

func TestSPECodeLargerThanPPE(t *testing.T) {
	ppe, spe, _ := newCompilers(t)
	p := classfile.NewProgram()
	c := p.NewClass("MemHeavy", nil)
	f := c.NewField("x", classfile.Int)
	m := c.NewMethod("touch", 0, classfile.Int)
	a := m.Asm()
	for i := 0; i < 10; i++ {
		a.LoadRef(0)
		a.GetField(f)
		a.Pop()
	}
	a.LoadRef(0)
	a.GetField(f)
	a.Ret()
	a.MustBuild()
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	pm, err := ppe.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := spe.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Size <= pm.Size {
		t.Errorf("SPE code (%d B) should exceed PPE code (%d B): inline cache probes", sm.Size, pm.Size)
	}
}

func TestFieldOffsetsResolved(t *testing.T) {
	_, spe, _ := newCompilers(t)
	p := classfile.NewProgram()
	base := p.NewClass("Base", nil)
	base.NewField("a", classfile.Int)
	sub := p.NewClass("Sub", base)
	fb := sub.NewField("b", classfile.Double)
	m := sub.NewMethod("getB", 0, classfile.Double)
	a := m.Asm()
	a.LoadRef(0)
	a.GetField(fb)
	a.Ret()
	a.MustBuild()
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	cm, err := spe.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	get := cm.Code[1]
	if get.Op != isa.OpGetField {
		t.Fatalf("expected getfield, got %v", get.Op)
	}
	// b is slot 1 (after Base.a): offset 16 + 8.
	if get.A != int32(isa.HeaderBytes+isa.SlotBytes) {
		t.Errorf("field offset: got %d want %d", get.A, isa.HeaderBytes+isa.SlotBytes)
	}
}

func TestVolatileAndRefFlags(t *testing.T) {
	_, spe, _ := newCompilers(t)
	p := classfile.NewProgram()
	c := p.NewClass("V", nil)
	fv := c.NewVolatileField("flag", classfile.Int)
	fr := c.NewField("next", classfile.Ref)
	m := c.NewMethod("probe", 0, classfile.Ref)
	a := m.Asm()
	a.LoadRef(0)
	a.GetField(fv)
	a.Pop()
	a.LoadRef(0)
	a.GetField(fr)
	a.Ret()
	a.MustBuild()
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	cm, err := spe.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Code[1].B&isa.FlagVolatile == 0 {
		t.Error("volatile flag missing")
	}
	if cm.Code[4].B != 0 {
		t.Errorf("a plain reference field is flagged %#x: its kind is the verifier's to say", cm.Code[4].B)
	}
}

func TestSwitchTables(t *testing.T) {
	_, spe, _ := newCompilers(t)
	p := classfile.NewProgram()
	c := p.NewClass("Sw", nil)
	m := c.NewMethod("pick", classfile.FlagStatic, classfile.Int, classfile.Int)
	a := m.Asm()
	c0, c1, def := a.NewLabel(), a.NewLabel(), a.NewLabel()
	a.LoadI(0)
	a.TableSwitch(10, def, c0, c1)
	a.Bind(c0)
	a.ConstI(0)
	a.Ret()
	a.Bind(c1)
	a.ConstI(1)
	a.Ret()
	a.Bind(def)
	a.ConstI(-1)
	a.Ret()
	a.MustBuild()
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	cm, err := spe.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.Tables) != 1 || len(cm.Tables[0]) != 2 {
		t.Fatalf("tables: %v", cm.Tables)
	}
	sw := cm.Code[1]
	if sw.Op != isa.OpTableSwitch || sw.A != 10 {
		t.Errorf("switch instr wrong: %v", sw)
	}
	for _, tgt := range cm.Tables[0] {
		if tgt <= 0 || int(tgt) >= len(cm.Code) {
			t.Errorf("table target %d out of range", tgt)
		}
	}
	if sw.B <= 0 || int(sw.B) >= len(cm.Code) {
		t.Errorf("default target %d out of range", sw.B)
	}
}

func TestCompileCachesResult(t *testing.T) {
	_, spe, _ := newCompilers(t)
	_, m := loopMethod(t)
	cm1, err := spe.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	cm2, err := spe.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if cm1 != cm2 {
		t.Error("recompilation should be memoised")
	}
	if spe.Compiles != 1 {
		t.Errorf("Compiles: %d", spe.Compiles)
	}
}

func TestPerTargetLazyCompilation(t *testing.T) {
	ppe, spe, _ := newCompilers(t)
	_, m := loopMethod(t)
	if _, err := spe.Compile(m); err != nil {
		t.Fatal(err)
	}
	// PPE compiler must not know about it: methods are compiled per core
	// type only when executed there (§3.1).
	if ppe.Lookup(m) != nil {
		t.Error("PPE compiler should not have compiled the method")
	}
}

func TestNativeMethodRejected(t *testing.T) {
	_, spe, _ := newCompilers(t)
	p := classfile.NewProgram()
	c := p.NewClass("N", nil)
	n := c.NewMethod("now", classfile.FlagStatic|classfile.FlagNative, classfile.Long)
	if err := func() error { _, err := spe.Compile(n); return err }(); err == nil ||
		!strings.Contains(err.Error(), "native") {
		t.Errorf("expected native rejection, got %v", err)
	}
	_ = p
}

func TestConstStrNeedsInterner(t *testing.T) {
	_, spe, _ := newCompilers(t)
	p := classfile.NewProgram()
	c := p.NewClass("S", nil)
	m := c.NewMethod("s", classfile.FlagStatic, classfile.Ref)
	a := m.Asm()
	a.Str("hello")
	a.Ret()
	a.MustBuild()
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	if _, err := spe.Compile(m); err == nil {
		t.Error("expected interner error")
	}
	spe.InternString = func(s string) (uint32, error) { return 0x1234, nil }
	// A fresh compiler attempt still fails because failure wasn't cached;
	// recompile now succeeds.
	cm, err := spe.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Code[0].Op != isa.OpPushConst || cm.Code[0].A != 0x1234 {
		t.Errorf("string constant mislowered: %v", cm.Code[0])
	}
}

func TestCodeBytesWrittenToMainMemory(t *testing.T) {
	_, spe, main := newCompilers(t)
	_, m := loopMethod(t)
	cm, err := spe.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if main.Read8(cm.Addr) == 0 {
		t.Error("compiled code region should contain nonzero pattern bytes")
	}
}

func TestCompileCyclesScaleWithSize(t *testing.T) {
	_, spe, _ := newCompilers(t)
	_, m := loopMethod(t)
	small := spe.CompileCycles(m)
	if small <= 800 {
		t.Errorf("compile cost %d too small", small)
	}
}

// TestLowerRejectsOutOfRangeTarget: the verifier reports a branch out of
// the body only on a path that takes it, so a hand-assigned body may
// carry one — or an opcode without its operand — in code nothing
// reaches, and the lowering translates every instruction with no check
// of its own. Resolve's structural pass is what keeps either from ever
// reaching it.
func TestLowerRejectsOutOfRangeTarget(t *testing.T) {
	for _, tail := range []classfile.BC{
		{Op: classfile.BCGoto, Target: 100},
		{Op: classfile.BCNew},
	} {
		p := classfile.NewProgram()
		m := p.NewClass("Hand", nil).NewMethod("f", classfile.FlagStatic, classfile.Void)
		m.Code = []classfile.BC{{Op: classfile.BCReturnVoid}, tail}
		if err := p.Resolve(); err == nil {
			t.Errorf("Resolve accepted an unreachable %v; lower would copy the target or dereference the operand", tail.Op)
		}
	}
}

// TestEveryOpcodeLowers: an opcode lowerOne has no case for is read from
// direct, where a missing entry is a silent nop. Every opcode but nop
// must lower to something else, conditionals with their target.
func TestEveryOpcodeLowers(t *testing.T) {
	p := classfile.NewProgram()
	c := p.NewClass("C", nil)
	iface := p.NewInterface("I")
	im := iface.NewMethod("run", classfile.FlagAbstract, classfile.Void)
	f, sf := c.NewField("f", classfile.Int), c.NewStaticField("s", classfile.Ref)
	virt := c.NewMethod("v", 0, classfile.Void)
	virt.Asm().RetVoid().MustBuild()
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	ppe, _, _ := newCompilers(t)
	ppe.InternString = func(string) (uint32, error) { return 64, nil }
	for op := classfile.BCOp(0); op < classfile.NumBCOps; op++ {
		bc := classfile.BC{Op: op, Target: 7}
		switch op {
		case classfile.BCConstStr:
			bc.Operand = "s"
		case classfile.BCGetField, classfile.BCPutField:
			bc.Operand = f
		case classfile.BCGetStatic, classfile.BCPutStatic:
			bc.Operand = sf
		case classfile.BCInvokeInterface:
			bc.Operand = im
		case classfile.BCInvokeVirtual, classfile.BCInvokeSpecial, classfile.BCInvokeStatic:
			bc.Operand = virt
		case classfile.BCNew, classfile.BCANewArray, classfile.BCInstanceOf, classfile.BCCheckCast:
			bc.Operand = c
		case classfile.BCTableSwitch, classfile.BCLookupSwitch:
			bc.Operand = &classfile.Switch{}
		}
		in, err := ppe.lowerOne(&bc)
		if err != nil {
			t.Errorf("%v: %v", op, err)
		}
		if (in.Op == isa.OpNop) != (op == classfile.BCNop) {
			t.Errorf("%v lowers to %v", op, in)
		}
		if op.IsConditional() && in.B != 7 {
			t.Errorf("%v lowers to %v, want its target in B", op, in)
		}
	}
}
