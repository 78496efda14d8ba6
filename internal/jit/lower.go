package jit

import (
	"fmt"

	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// lower translates a method's bytecode for the compiler's target one for
// one: Code[pc] is bytecode pc's instruction on every kind — kinds differ
// in what an instruction costs and how many bytes it encodes to, not in
// how many there are (lowerOne's signature cannot emit two). A bytecode
// index is therefore a Code index as it stands: branch, switch and
// handler targets are copied, a switch's Tables and Keys entries are the
// bytecode's own slices (nothing writes either side after Resolve), and a
// frame's PC means the same on every kind. Symbolic references resolve
// here — fields to byte offsets, methods to IDs and vtable slots — as a
// baseline JIT resolves constant-pool entries at compile time. Resolve's
// structural pass already held every operand and every index to the
// body (classfile.wellFormed), so nothing is range-checked again.
func (c *Compiler) lower(m *classfile.Method) (*CompiledMethod, error) {
	cm := &CompiledMethod{M: m, Target: c.target, Code: make([]isa.Instr, len(m.Code))}
	size := uint32(c.costs.MethodPrologueBytes)
	for pc := range m.Code {
		bc := &m.Code[pc]
		in, err := c.lowerOne(bc)
		if err != nil {
			return nil, fmt.Errorf("jit: %s pc %d (%v): %w", m.Sig(), pc, bc.Op, err)
		}
		if in.Op == isa.OpTableSwitch || in.Op == isa.OpLookupSwitch {
			sw := bc.Switch()
			in.C = int32(len(cm.Tables))
			cm.Tables = append(cm.Tables, sw.Targets)
			cm.Keys = append(cm.Keys, sw.Keys)
			size += uint32(len(sw.Targets)) * 4
		}
		in.Cost = c.costs.OpCost[in.Op]
		size += uint32(c.costs.OpSize[in.Op])
		cm.Code[pc] = in
	}
	for _, h := range m.Handlers {
		classID := -1
		if h.Type != nil {
			classID = h.Type.ID
		}
		cm.Handlers = append(cm.Handlers, CompiledHandler{
			From: h.From, To: h.To, Target: h.Target, ClassID: classID,
		})
	}
	cm.Size = size + uint32(len(m.Handlers))*16 // exception-table entries
	return cm, nil
}

// direct is the lowering of every bytecode that carries nothing of its
// own — no immediate, no operand: the entry is the instruction. The
// sixteen conditional branches are here with their condition in A;
// lowerOne adds the target.
var direct = [classfile.NumBCOps]isa.Instr{
	classfile.BCNop: {Op: isa.OpNop},

	classfile.BCPop: {Op: isa.OpPop}, classfile.BCPop2: {Op: isa.OpPop2},
	classfile.BCDup: {Op: isa.OpDup}, classfile.BCDupX1: {Op: isa.OpDupX1},
	classfile.BCDupX2: {Op: isa.OpDupX2}, classfile.BCDup2: {Op: isa.OpDup2},
	classfile.BCSwap: {Op: isa.OpSwap},

	classfile.BCAddI: {Op: isa.OpAddI}, classfile.BCSubI: {Op: isa.OpSubI},
	classfile.BCMulI: {Op: isa.OpMulI}, classfile.BCDivI: {Op: isa.OpDivI},
	classfile.BCRemI: {Op: isa.OpRemI}, classfile.BCNegI: {Op: isa.OpNegI},
	classfile.BCShlI: {Op: isa.OpShlI}, classfile.BCShrI: {Op: isa.OpShrI},
	classfile.BCUShrI: {Op: isa.OpUShrI}, classfile.BCAndI: {Op: isa.OpAndI},
	classfile.BCOrI: {Op: isa.OpOrI}, classfile.BCXorI: {Op: isa.OpXorI},

	classfile.BCAddL: {Op: isa.OpAddL}, classfile.BCSubL: {Op: isa.OpSubL},
	classfile.BCMulL: {Op: isa.OpMulL}, classfile.BCDivL: {Op: isa.OpDivL},
	classfile.BCRemL: {Op: isa.OpRemL}, classfile.BCNegL: {Op: isa.OpNegL},
	classfile.BCShlL: {Op: isa.OpShlL}, classfile.BCShrL: {Op: isa.OpShrL},
	classfile.BCUShrL: {Op: isa.OpUShrL}, classfile.BCAndL: {Op: isa.OpAndL},
	classfile.BCOrL: {Op: isa.OpOrL}, classfile.BCXorL: {Op: isa.OpXorL},
	classfile.BCCmpL: {Op: isa.OpCmpL},

	classfile.BCAddF: {Op: isa.OpAddF}, classfile.BCSubF: {Op: isa.OpSubF},
	classfile.BCMulF: {Op: isa.OpMulF}, classfile.BCDivF: {Op: isa.OpDivF},
	classfile.BCRemF: {Op: isa.OpRemF}, classfile.BCNegF: {Op: isa.OpNegF},
	classfile.BCCmpFL: {Op: isa.OpCmpF, A: -1}, classfile.BCCmpFG: {Op: isa.OpCmpF, A: 1},

	classfile.BCAddD: {Op: isa.OpAddD}, classfile.BCSubD: {Op: isa.OpSubD},
	classfile.BCMulD: {Op: isa.OpMulD}, classfile.BCDivD: {Op: isa.OpDivD},
	classfile.BCRemD: {Op: isa.OpRemD}, classfile.BCNegD: {Op: isa.OpNegD},
	classfile.BCCmpDL: {Op: isa.OpCmpD, A: -1}, classfile.BCCmpDG: {Op: isa.OpCmpD, A: 1},

	classfile.BCI2L: {Op: isa.OpI2L}, classfile.BCI2F: {Op: isa.OpI2F},
	classfile.BCI2D: {Op: isa.OpI2D}, classfile.BCL2I: {Op: isa.OpL2I},
	classfile.BCL2F: {Op: isa.OpL2F}, classfile.BCL2D: {Op: isa.OpL2D},
	classfile.BCF2I: {Op: isa.OpF2I}, classfile.BCF2L: {Op: isa.OpF2L},
	classfile.BCF2D: {Op: isa.OpF2D}, classfile.BCD2I: {Op: isa.OpD2I},
	classfile.BCD2L: {Op: isa.OpD2L}, classfile.BCD2F: {Op: isa.OpD2F},
	classfile.BCI2B: {Op: isa.OpI2B}, classfile.BCI2C: {Op: isa.OpI2C},
	classfile.BCI2S: {Op: isa.OpI2S},

	classfile.BCIfEQ: {Op: isa.OpIf, A: isa.CondEQ}, classfile.BCIfNE: {Op: isa.OpIf, A: isa.CondNE},
	classfile.BCIfLT: {Op: isa.OpIf, A: isa.CondLT}, classfile.BCIfGE: {Op: isa.OpIf, A: isa.CondGE},
	classfile.BCIfGT: {Op: isa.OpIf, A: isa.CondGT}, classfile.BCIfLE: {Op: isa.OpIf, A: isa.CondLE},
	classfile.BCIfICmpEQ: {Op: isa.OpIfCmpI, A: isa.CondEQ}, classfile.BCIfICmpNE: {Op: isa.OpIfCmpI, A: isa.CondNE},
	classfile.BCIfICmpLT: {Op: isa.OpIfCmpI, A: isa.CondLT}, classfile.BCIfICmpGE: {Op: isa.OpIfCmpI, A: isa.CondGE},
	classfile.BCIfICmpGT: {Op: isa.OpIfCmpI, A: isa.CondGT}, classfile.BCIfICmpLE: {Op: isa.OpIfCmpI, A: isa.CondLE},
	classfile.BCIfACmpEQ: {Op: isa.OpIfCmpRef, A: isa.CondEQ}, classfile.BCIfACmpNE: {Op: isa.OpIfCmpRef, A: isa.CondNE},
	classfile.BCIfNull: {Op: isa.OpIfNull, A: 0}, classfile.BCIfNonNull: {Op: isa.OpIfNull, A: 1},

	classfile.BCArrayLen: {Op: isa.OpArrayLen},
	classfile.BCReturn:   {Op: isa.OpReturn, A: 1}, classfile.BCReturnVoid: {Op: isa.OpReturn, A: 0},
	classfile.BCMonitorEnter: {Op: isa.OpMonitorEnter}, classfile.BCMonitorExit: {Op: isa.OpMonitorExit},
	classfile.BCThrow: {Op: isa.OpThrow},
}

func pushConst(w uint64) isa.Instr {
	return isa.Instr{Op: isa.OpPushConst, A: int32(uint32(w)), B: int32(uint32(w >> 32))}
}

// fieldAccess lowers a field bytecode: A is where the field lives (a
// byte offset in the object, or a global static slot), B how to treat it.
func fieldAccess(op isa.Op, at int32, f *classfile.Field) isa.Instr {
	in := isa.Instr{Op: op, A: at}
	if f.Volatile {
		in.B |= isa.FlagVolatile
	}
	return in
}

// lowerOne is one bytecode's instruction, less its cost (and a switch's
// table index), which lower fills in. The cases are the bytecodes with an
// immediate or an operand to resolve; everything else is direct's.
func (c *Compiler) lowerOne(bc *classfile.BC) (isa.Instr, error) {
	switch bc.Op {
	case classfile.BCConstI:
		return pushConst(uint64(uint32(bc.A))), nil
	case classfile.BCConstL, classfile.BCConstD, classfile.BCConstF:
		return pushConst(bc.W), nil
	case classfile.BCConstNull:
		return pushConst(0), nil
	case classfile.BCConstStr:
		if c.InternString == nil {
			return isa.Instr{}, fmt.Errorf("no string interner registered")
		}
		ref, err := c.InternString(bc.Str())
		return pushConst(uint64(ref)), err

	case classfile.BCLoadI, classfile.BCLoadL, classfile.BCLoadF,
		classfile.BCLoadD, classfile.BCLoadRef:
		return isa.Instr{Op: isa.OpLoadLocal, A: bc.A}, nil
	case classfile.BCStoreI, classfile.BCStoreL, classfile.BCStoreF,
		classfile.BCStoreD, classfile.BCStoreRef:
		return isa.Instr{Op: isa.OpStoreLocal, A: bc.A}, nil
	case classfile.BCInc:
		return isa.Instr{Op: isa.OpIncLocal, A: bc.A, B: bc.B}, nil

	case classfile.BCGoto:
		return isa.Instr{Op: isa.OpGoto, A: bc.Target}, nil
	case classfile.BCTableSwitch:
		return isa.Instr{Op: isa.OpTableSwitch, A: bc.A, B: bc.Target}, nil
	case classfile.BCLookupSwitch:
		return isa.Instr{Op: isa.OpLookupSwitch, A: bc.A, B: bc.Target}, nil

	case classfile.BCGetField:
		return fieldAccess(isa.OpGetField, int32(isa.FieldOffset(bc.Field().Slot)), bc.Field()), nil
	case classfile.BCPutField:
		return fieldAccess(isa.OpPutField, int32(isa.FieldOffset(bc.Field().Slot)), bc.Field()), nil
	case classfile.BCGetStatic:
		return fieldAccess(isa.OpGetStatic, int32(bc.Field().Slot), bc.Field()), nil
	case classfile.BCPutStatic:
		return fieldAccess(isa.OpPutStatic, int32(bc.Field().Slot), bc.Field()), nil

	case classfile.BCNewArray:
		return isa.Instr{Op: isa.OpNewArray, A: int32(bc.Kind)}, nil
	case classfile.BCALoad:
		return isa.Instr{Op: isa.OpALoad, A: int32(bc.Kind)}, nil
	case classfile.BCAStore:
		return isa.Instr{Op: isa.OpAStore, A: int32(bc.Kind)}, nil

	case classfile.BCANewArray:
		return isa.Instr{Op: isa.OpANewArray, A: int32(bc.Class().ID)}, nil
	case classfile.BCNew:
		return isa.Instr{Op: isa.OpNew, A: int32(bc.Class().ID)}, nil
	case classfile.BCInstanceOf:
		return isa.Instr{Op: isa.OpInstanceOf, A: int32(bc.Class().ID)}, nil
	case classfile.BCCheckCast:
		return isa.Instr{Op: isa.OpCheckCast, A: int32(bc.Class().ID)}, nil

	case classfile.BCInvokeStatic:
		return isa.Instr{Op: isa.OpCallStatic, A: int32(bc.Method().ID)}, nil
	case classfile.BCInvokeSpecial:
		return isa.Instr{Op: isa.OpCallSpecial, A: int32(bc.Method().ID)}, nil
	case classfile.BCInvokeVirtual:
		callee := bc.Method()
		if callee.VSlot < 0 {
			return isa.Instr{}, fmt.Errorf("virtual call to unslotted %s", callee.Sig())
		}
		return isa.Instr{Op: isa.OpCallVirtual, A: int32(callee.VSlot), B: int32(callee.Class.ID)}, nil
	case classfile.BCInvokeInterface:
		callee := bc.Method()
		if callee.IfaceID < 0 {
			return isa.Instr{}, fmt.Errorf("interface call to %s without IfaceID", callee.Sig())
		}
		return isa.Instr{Op: isa.OpCallInterface, A: int32(callee.IfaceID)}, nil
	}
	in := direct[bc.Op]
	if bc.Op.IsConditional() {
		in.B = bc.Target
	}
	return in, nil
}
