package isa

import "fmt"

// Instr is one simulated machine instruction as produced by a JIT
// backend. A/B/C carry opcode-specific operands (immediates, local slots,
// resolved field offsets, branch targets as instruction indices, method
// IDs, table indices). Cost is the static cycle cost assigned by the
// backend's cost table; memory opcodes incur additional dynamic cycles
// determined by the machine's memory system at execution time.
type Instr struct {
	Op   Op
	A    int32
	B    int32
	C    int32
	Cost uint16
}

// String formats the instruction for disassembly listings.
func (i Instr) String() string {
	switch i.Op {
	case OpPushConst:
		return fmt.Sprintf("%-12s %#x", i.Op, uint64(uint32(i.A))|uint64(uint32(i.B))<<32)
	case OpLoadLocal, OpStoreLocal:
		return fmt.Sprintf("%-12s l%d", i.Op, i.A)
	case OpIncLocal:
		return fmt.Sprintf("%-12s l%d, %+d", i.Op, i.A, i.B)
	case OpGoto:
		return fmt.Sprintf("%-12s @%d", i.Op, i.A)
	case OpIf, OpIfCmpI, OpIfCmpRef, OpIfNull:
		return fmt.Sprintf("%-12s c%d, @%d", i.Op, i.A, i.B)
	case OpCallStatic, OpCallSpecial, OpCallVirtual, OpCallInterface:
		return fmt.Sprintf("%-12s #%d", i.Op, i.A)
	case OpGetField, OpPutField, OpGetStatic, OpPutStatic:
		return fmt.Sprintf("%-12s +%d (f%#x)", i.Op, i.A, i.B)
	case OpNew, OpANewArray, OpInstanceOf, OpCheckCast:
		return fmt.Sprintf("%-12s cls%d", i.Op, i.A)
	case OpNewArray, OpALoad, OpAStore:
		return fmt.Sprintf("%-12s %s", i.Op, ElemKind(i.A))
	default:
		return i.Op.String()
	}
}
