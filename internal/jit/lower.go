package jit

import (
	"fmt"

	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// lower macro-expands a method's bytecode into machine instructions for
// the compiler's target, resolving symbolic references (fields to byte
// offsets, methods to IDs/vtable slots, bytecode indexes to instruction
// indices) exactly as a baseline JIT resolves constant-pool entries at
// compile time.
func (c *Compiler) lower(m *classfile.Method) (*CompiledMethod, error) {
	// Every bytecode lowers to one instruction today, so len(m.Code) is
	// the exact size; a backend that expands one would grow the slice.
	cm := &CompiledMethod{
		M: m, Target: c.target,
		Code:    make([]isa.Instr, 0, len(m.Code)),
		EntryOf: make([]int32, len(m.Code)+1),
	}
	emit := func(in isa.Instr) {
		in.Cost = c.costs.OpCost[in.Op]
		cm.Code = append(cm.Code, in)
	}

	// Branches are emitted carrying bytecode targets; once EntryOf — the
	// bytecode<->machine index map kept for cross-kind PC translation
	// (CompiledMethod.TranslatePC) — is complete they are translated in
	// place.
	for pc := range m.Code {
		bc := &m.Code[pc]
		cm.EntryOf[pc] = int32(len(cm.Code))
		if err := c.lowerOne(bc, emit, cm); err != nil {
			return nil, fmt.Errorf("jit: %s pc %d (%v): %w", m.Sig(), pc, bc.Op, err)
		}
	}
	cm.EntryOf[len(m.Code)] = int32(len(cm.Code))
	// entry translates a bytecode index; the first one outside the body
	// (the verifier reports one only on a path that takes it) fails the
	// compile once everything is translated.
	var bad error
	entry := func(bcPC int) int {
		if bcPC < 0 || bcPC > len(m.Code) {
			if bad == nil {
				bad = fmt.Errorf("jit: %s: bytecode index %d outside [0,%d]", m.Sig(), bcPC, len(m.Code))
			}
			return 0
		}
		return int(cm.EntryOf[bcPC])
	}
	retarget := func(t *int32) { *t = int32(entry(int(*t))) }

	cm.BCIndex = make([]int32, len(cm.Code))
	for pc := range m.Code {
		for i := cm.EntryOf[pc]; i < cm.EntryOf[pc+1]; i++ {
			cm.BCIndex[i] = int32(pc)
		}
	}

	for i := range cm.Code {
		switch in := &cm.Code[i]; in.Op {
		case isa.OpGoto:
			retarget(&in.A)
		case isa.OpIf, isa.OpIfCmpI, isa.OpIfCmpRef, isa.OpIfNull,
			isa.OpTableSwitch, isa.OpLookupSwitch:
			retarget(&in.B)
		}
	}
	for _, tb := range cm.Tables {
		for slot := range tb {
			retarget(&tb[slot])
		}
	}
	for _, h := range m.Handlers {
		classID := -1
		if h.Type != nil {
			classID = h.Type.ID
		}
		cm.Handlers = append(cm.Handlers, CompiledHandler{
			From:    entry(h.From),
			To:      entry(h.To),
			Target:  entry(h.Target),
			ClassID: classID,
		})
	}
	if bad != nil {
		return nil, bad
	}

	size := uint32(c.costs.MethodPrologueBytes)
	for _, in := range cm.Code {
		size += uint32(c.costs.OpSize[in.Op])
	}
	for _, tb := range cm.Tables {
		size += uint32(len(tb)) * 4
	}
	size += uint32(len(m.Handlers)) * 16 // exception-table entries
	cm.Size = size
	return cm, nil
}

func (c *Compiler) lowerOne(bc *classfile.BC, emit func(isa.Instr), cm *CompiledMethod) error {
	pushConst := func(w uint64, ref bool) {
		in := isa.Instr{Op: isa.OpPushConst, A: int32(uint32(w)), B: int32(uint32(w >> 32))}
		if ref {
			in.C = 1
		}
		emit(in)
	}
	simple := func(op isa.Op) { emit(isa.Instr{Op: op}) }
	condBranch := func(op isa.Op, cond int32) {
		emit(isa.Instr{Op: op, A: cond, B: bc.Target})
	}
	f, callee := bc.Field(), bc.Method()
	fieldFlags := func(f *classfile.Field) int32 {
		var fl int32
		if f.Volatile {
			fl |= isa.FlagVolatile
		}
		if f.Type == classfile.Ref {
			fl |= isa.FlagRef
		}
		return fl
	}

	switch bc.Op {
	case classfile.BCNop:
		simple(isa.OpNop)

	case classfile.BCConstI:
		pushConst(uint64(uint32(bc.A)), false)
	case classfile.BCConstL, classfile.BCConstD, classfile.BCConstF:
		pushConst(bc.W, false)
	case classfile.BCConstNull:
		pushConst(0, true)
	case classfile.BCConstStr:
		if c.InternString == nil {
			return fmt.Errorf("no string interner registered")
		}
		ref, err := c.InternString(bc.Str())
		if err != nil {
			return err
		}
		pushConst(uint64(ref), true)

	case classfile.BCLoadI, classfile.BCLoadL, classfile.BCLoadF,
		classfile.BCLoadD, classfile.BCLoadRef:
		emit(isa.Instr{Op: isa.OpLoadLocal, A: bc.A})
	case classfile.BCStoreI, classfile.BCStoreL, classfile.BCStoreF,
		classfile.BCStoreD, classfile.BCStoreRef:
		emit(isa.Instr{Op: isa.OpStoreLocal, A: bc.A})
	case classfile.BCInc:
		emit(isa.Instr{Op: isa.OpIncLocal, A: bc.A, B: bc.B})

	case classfile.BCPop:
		simple(isa.OpPop)
	case classfile.BCPop2:
		simple(isa.OpPop2)
	case classfile.BCDup:
		simple(isa.OpDup)
	case classfile.BCDupX1:
		simple(isa.OpDupX1)
	case classfile.BCDupX2:
		simple(isa.OpDupX2)
	case classfile.BCDup2:
		simple(isa.OpDup2)
	case classfile.BCSwap:
		simple(isa.OpSwap)

	case classfile.BCAddI:
		simple(isa.OpAddI)
	case classfile.BCSubI:
		simple(isa.OpSubI)
	case classfile.BCMulI:
		simple(isa.OpMulI)
	case classfile.BCDivI:
		simple(isa.OpDivI)
	case classfile.BCRemI:
		simple(isa.OpRemI)
	case classfile.BCNegI:
		simple(isa.OpNegI)
	case classfile.BCShlI:
		simple(isa.OpShlI)
	case classfile.BCShrI:
		simple(isa.OpShrI)
	case classfile.BCUShrI:
		simple(isa.OpUShrI)
	case classfile.BCAndI:
		simple(isa.OpAndI)
	case classfile.BCOrI:
		simple(isa.OpOrI)
	case classfile.BCXorI:
		simple(isa.OpXorI)

	case classfile.BCAddL:
		simple(isa.OpAddL)
	case classfile.BCSubL:
		simple(isa.OpSubL)
	case classfile.BCMulL:
		simple(isa.OpMulL)
	case classfile.BCDivL:
		simple(isa.OpDivL)
	case classfile.BCRemL:
		simple(isa.OpRemL)
	case classfile.BCNegL:
		simple(isa.OpNegL)
	case classfile.BCShlL:
		simple(isa.OpShlL)
	case classfile.BCShrL:
		simple(isa.OpShrL)
	case classfile.BCUShrL:
		simple(isa.OpUShrL)
	case classfile.BCAndL:
		simple(isa.OpAndL)
	case classfile.BCOrL:
		simple(isa.OpOrL)
	case classfile.BCXorL:
		simple(isa.OpXorL)
	case classfile.BCCmpL:
		simple(isa.OpCmpL)

	case classfile.BCAddF:
		simple(isa.OpAddF)
	case classfile.BCSubF:
		simple(isa.OpSubF)
	case classfile.BCMulF:
		simple(isa.OpMulF)
	case classfile.BCDivF:
		simple(isa.OpDivF)
	case classfile.BCRemF:
		simple(isa.OpRemF)
	case classfile.BCNegF:
		simple(isa.OpNegF)
	case classfile.BCCmpFL:
		emit(isa.Instr{Op: isa.OpCmpF, A: -1})
	case classfile.BCCmpFG:
		emit(isa.Instr{Op: isa.OpCmpF, A: 1})

	case classfile.BCAddD:
		simple(isa.OpAddD)
	case classfile.BCSubD:
		simple(isa.OpSubD)
	case classfile.BCMulD:
		simple(isa.OpMulD)
	case classfile.BCDivD:
		simple(isa.OpDivD)
	case classfile.BCRemD:
		simple(isa.OpRemD)
	case classfile.BCNegD:
		simple(isa.OpNegD)
	case classfile.BCCmpDL:
		emit(isa.Instr{Op: isa.OpCmpD, A: -1})
	case classfile.BCCmpDG:
		emit(isa.Instr{Op: isa.OpCmpD, A: 1})

	case classfile.BCI2L:
		simple(isa.OpI2L)
	case classfile.BCI2F:
		simple(isa.OpI2F)
	case classfile.BCI2D:
		simple(isa.OpI2D)
	case classfile.BCL2I:
		simple(isa.OpL2I)
	case classfile.BCL2F:
		simple(isa.OpL2F)
	case classfile.BCL2D:
		simple(isa.OpL2D)
	case classfile.BCF2I:
		simple(isa.OpF2I)
	case classfile.BCF2L:
		simple(isa.OpF2L)
	case classfile.BCF2D:
		simple(isa.OpF2D)
	case classfile.BCD2I:
		simple(isa.OpD2I)
	case classfile.BCD2L:
		simple(isa.OpD2L)
	case classfile.BCD2F:
		simple(isa.OpD2F)
	case classfile.BCI2B:
		simple(isa.OpI2B)
	case classfile.BCI2C:
		simple(isa.OpI2C)
	case classfile.BCI2S:
		simple(isa.OpI2S)

	case classfile.BCGoto:
		emit(isa.Instr{Op: isa.OpGoto, A: bc.Target})
	case classfile.BCIfEQ:
		condBranch(isa.OpIf, isa.CondEQ)
	case classfile.BCIfNE:
		condBranch(isa.OpIf, isa.CondNE)
	case classfile.BCIfLT:
		condBranch(isa.OpIf, isa.CondLT)
	case classfile.BCIfGE:
		condBranch(isa.OpIf, isa.CondGE)
	case classfile.BCIfGT:
		condBranch(isa.OpIf, isa.CondGT)
	case classfile.BCIfLE:
		condBranch(isa.OpIf, isa.CondLE)
	case classfile.BCIfICmpEQ:
		condBranch(isa.OpIfCmpI, isa.CondEQ)
	case classfile.BCIfICmpNE:
		condBranch(isa.OpIfCmpI, isa.CondNE)
	case classfile.BCIfICmpLT:
		condBranch(isa.OpIfCmpI, isa.CondLT)
	case classfile.BCIfICmpGE:
		condBranch(isa.OpIfCmpI, isa.CondGE)
	case classfile.BCIfICmpGT:
		condBranch(isa.OpIfCmpI, isa.CondGT)
	case classfile.BCIfICmpLE:
		condBranch(isa.OpIfCmpI, isa.CondLE)
	case classfile.BCIfACmpEQ:
		condBranch(isa.OpIfCmpRef, isa.CondEQ)
	case classfile.BCIfACmpNE:
		condBranch(isa.OpIfCmpRef, isa.CondNE)
	case classfile.BCIfNull:
		condBranch(isa.OpIfNull, 0)
	case classfile.BCIfNonNull:
		condBranch(isa.OpIfNull, 1)

	case classfile.BCTableSwitch, classfile.BCLookupSwitch:
		sw := bc.Switch()
		op := isa.OpTableSwitch
		var keys []int32
		if bc.Op == classfile.BCLookupSwitch {
			op = isa.OpLookupSwitch
			keys = append([]int32(nil), sw.Keys...)
		}
		emit(isa.Instr{Op: op, A: bc.A, B: bc.Target, C: int32(len(cm.Tables))})
		cm.Tables = append(cm.Tables, append([]int32(nil), sw.Targets...))
		cm.Keys = append(cm.Keys, keys)

	case classfile.BCGetField:
		emit(isa.Instr{Op: isa.OpGetField, A: int32(isa.FieldOffset(f.Slot)), B: fieldFlags(f)})
	case classfile.BCPutField:
		emit(isa.Instr{Op: isa.OpPutField, A: int32(isa.FieldOffset(f.Slot)), B: fieldFlags(f)})
	case classfile.BCGetStatic:
		emit(isa.Instr{Op: isa.OpGetStatic, A: int32(f.Slot), B: fieldFlags(f)})
	case classfile.BCPutStatic:
		emit(isa.Instr{Op: isa.OpPutStatic, A: int32(f.Slot), B: fieldFlags(f)})

	case classfile.BCNewArray:
		emit(isa.Instr{Op: isa.OpNewArray, A: int32(bc.Kind)})
	case classfile.BCANewArray:
		emit(isa.Instr{Op: isa.OpANewArray, A: int32(bc.Class().ID)})
	case classfile.BCALoad:
		emit(isa.Instr{Op: isa.OpALoad, A: int32(bc.Kind)})
	case classfile.BCAStore:
		emit(isa.Instr{Op: isa.OpAStore, A: int32(bc.Kind)})
	case classfile.BCArrayLen:
		simple(isa.OpArrayLen)

	case classfile.BCNew:
		emit(isa.Instr{Op: isa.OpNew, A: int32(bc.Class().ID)})
	case classfile.BCInvokeStatic:
		emit(isa.Instr{Op: isa.OpCallStatic, A: int32(callee.ID)})
	case classfile.BCInvokeSpecial:
		emit(isa.Instr{Op: isa.OpCallSpecial, A: int32(callee.ID)})
	case classfile.BCInvokeVirtual:
		if callee.VSlot < 0 {
			return fmt.Errorf("virtual call to unslotted %s", callee.Sig())
		}
		emit(isa.Instr{Op: isa.OpCallVirtual, A: int32(callee.VSlot), B: int32(callee.Class.ID)})
	case classfile.BCInvokeInterface:
		if callee.IfaceID < 0 {
			return fmt.Errorf("interface call to %s without IfaceID", callee.Sig())
		}
		emit(isa.Instr{Op: isa.OpCallInterface, A: int32(callee.IfaceID)})
	case classfile.BCInstanceOf:
		emit(isa.Instr{Op: isa.OpInstanceOf, A: int32(bc.Class().ID)})
	case classfile.BCCheckCast:
		emit(isa.Instr{Op: isa.OpCheckCast, A: int32(bc.Class().ID)})

	case classfile.BCReturn:
		emit(isa.Instr{Op: isa.OpReturn, A: 1})
	case classfile.BCReturnVoid:
		emit(isa.Instr{Op: isa.OpReturn, A: 0})

	case classfile.BCMonitorEnter:
		simple(isa.OpMonitorEnter)
	case classfile.BCMonitorExit:
		simple(isa.OpMonitorExit)
	case classfile.BCThrow:
		simple(isa.OpThrow)

	default:
		return fmt.Errorf("unhandled bytecode")
	}
	return nil
}
