package isa

import (
	"testing"
	"testing/quick"
)

func TestOpNamesComplete(t *testing.T) {
	for o := Op(0); int(o) < NumOps; o++ {
		if opNames[o] == "" {
			t.Errorf("opcode %d has no mnemonic", o)
		}
	}
}

func TestOpClassInRange(t *testing.T) {
	for o := Op(0); int(o) < NumOps; o++ {
		if int(o.Class()) >= NumClasses {
			t.Errorf("opcode %v has out-of-range class %d", o, o.Class())
		}
	}
}

func TestClassNames(t *testing.T) {
	want := map[OpClass]string{
		ClassInt:      "Integer",
		ClassFloat:    "Floating Point",
		ClassBranch:   "Branch",
		ClassStack:    "Stack",
		ClassLocalMem: "Local Memory",
		ClassMainMem:  "Main Memory",
	}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("class %d: got %q want %q", c, c.String(), name)
		}
	}
	if OpClass(200).String() != "Unknown" {
		t.Errorf("out-of-range class should stringify as Unknown")
	}
}

func TestElemKindSizes(t *testing.T) {
	want := map[ElemKind]uint32{
		ElemBool: 1, ElemByte: 1, ElemChar: 2, ElemShort: 2,
		ElemInt: 4, ElemFloat: 4, ElemLong: 8, ElemDouble: 8, ElemRef: 4,
	}
	for k, sz := range want {
		if k.Size() != sz {
			t.Errorf("%v size: got %d want %d", k, k.Size(), sz)
		}
	}
}

func TestCostTablesPopulated(t *testing.T) {
	for _, kind := range CoreKinds() {
		tab := Costs(kind)
		for o := Op(0); int(o) < NumOps; o++ {
			if o == OpNop {
				continue
			}
			if tab.OpCost[o] == 0 {
				t.Errorf("%v: opcode %v has zero cost", kind, o)
			}
			if tab.OpSize[o] == 0 {
				t.Errorf("%v: opcode %v has zero size", kind, o)
			}
		}
	}
}

// The SPE must model faster floating point and slower integer division
// than the PPE, and larger memory-access code; these relationships are
// what the paper's Figure 4(a) and Figure 7 depend on. Lock the
// relationships down so recalibration cannot silently invert them.
func TestCostRelationships(t *testing.T) {
	ppe, spe := PPECosts(), SPECosts()
	if spe.OpCost[OpMulD] >= ppe.OpCost[OpMulD] {
		t.Errorf("SPE double multiply (%d) must be cheaper than PPE (%d)",
			spe.OpCost[OpMulD], ppe.OpCost[OpMulD])
	}
	if spe.OpCost[OpAddD] >= ppe.OpCost[OpAddD] {
		t.Errorf("SPE double add (%d) must be cheaper than PPE (%d)",
			spe.OpCost[OpAddD], ppe.OpCost[OpAddD])
	}
	if spe.OpCost[OpDivI] <= ppe.OpCost[OpDivI] {
		t.Errorf("SPE integer divide (%d) must be dearer than PPE (%d): no hardware divider",
			spe.OpCost[OpDivI], ppe.OpCost[OpDivI])
	}
	if spe.BranchTakenExtra <= ppe.BranchTakenExtra {
		t.Errorf("SPE taken-branch penalty (%d) must exceed PPE (%d): no predictor",
			spe.BranchTakenExtra, ppe.BranchTakenExtra)
	}
	for _, o := range []Op{OpGetField, OpPutField, OpALoad, OpAStore} {
		if spe.OpSize[o] <= ppe.OpSize[o] {
			t.Errorf("SPE %v encoded size (%d) must exceed PPE (%d): inline cache probe",
				o, spe.OpSize[o], ppe.OpSize[o])
		}
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpAddI}, "addi"},
		{Instr{Op: OpLoadLocal, A: 3}, "loadlocal    l3"},
		{Instr{Op: OpGoto, A: 17}, "goto         @17"},
		{Instr{Op: OpPushConst, A: 1, B: 2}, "pushconst    0x200000001"},
		{Instr{Op: OpIncLocal, A: 2, B: -1}, "inclocal     l2, -1"},
		{Instr{Op: OpIfCmpI, A: 1, B: 9}, "ifcmpi       c1, @9"},
		{Instr{Op: OpCallVirtual, A: 4}, "callvirtual  #4"},
		{Instr{Op: OpGetField, A: 24, B: 5}, "getfield     +24 (f0x5)"},
		{Instr{Op: OpNew, A: 7}, "new          cls7"},
		{Instr{Op: OpALoad, A: int32(ElemDouble)}, "aload        double"},
		{Instr{Op: OpNewArray, A: 99}, "newarray     ?"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%v): got %q want %q", c.in.Op, got, c.want)
		}
	}
}

func TestPushConstRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		in := Instr{Op: OpPushConst, A: int32(uint32(v)), B: int32(uint32(v >> 32))}
		out := uint64(uint32(in.A)) | uint64(uint32(in.B))<<32
		return out == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Objects are a header then 8-byte slots; arrays a header then elements
// packed at their width, the whole rounded up to 8 bytes.
func TestLayout(t *testing.T) {
	if got := FieldOffset(2); got != HeaderBytes+2*SlotBytes {
		t.Errorf("FieldOffset(2) = %d", got)
	}
	if got := ObjectBytes(3); got != HeaderBytes+3*SlotBytes {
		t.Errorf("ObjectBytes(3) = %d", got)
	}
	if got := ArrayBytes(ElemByte, 3); got != 24 {
		t.Errorf("ArrayBytes(byte, 3) = %d, want 24", got)
	}
	if got := ArrayBytes(ElemDouble, 2); got != 32 {
		t.Errorf("ArrayBytes(double, 2) = %d, want 32", got)
	}
}

// MemShape gives each of the seven memory opcodes its operand-stack
// shape, and every other opcode none.
func TestMemShape(t *testing.T) {
	type shape struct {
		pops  int
		loads bool
	}
	want := map[Op]shape{
		OpGetStatic: {0, true}, OpGetField: {1, true}, OpArrayLen: {1, true},
		OpALoad: {2, true}, OpPutStatic: {1, false}, OpPutField: {2, false},
		OpAStore: {3, false}, OpAddI: {0, false},
	}
	for op, w := range want {
		if pops, loads := op.MemShape(); pops != w.pops || loads != w.loads {
			t.Errorf("%v: MemShape %d, %v; want %d, %v", op, pops, loads, w.pops, w.loads)
		}
	}
}
