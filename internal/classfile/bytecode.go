package classfile

import (
	"fmt"

	"herajvm/internal/isa"
)

// BCOp is a Java-bytecode-subset opcode. Instructions are held in
// structured form (symbolic operands as indexes into the method's
// constant pool, branch targets as instruction indexes) rather than
// serialized bytes; the JIT consumes this form.
type BCOp uint8

const (
	BCNop BCOp = iota

	// Constants. ConstI uses A; ConstL/ConstF/ConstD use Wide() (raw
	// bits, low word in A and high word in B);
	// ConstStr's pool entry is the string (interned at boot); ConstNull
	// pushes null.
	BCConstI
	BCConstL
	BCConstF
	BCConstD
	BCConstNull
	BCConstStr

	// Locals. A = local index.
	BCLoadI
	BCLoadL
	BCLoadF
	BCLoadD
	BCLoadRef
	BCStoreI
	BCStoreL
	BCStoreF
	BCStoreD
	BCStoreRef
	// BCInc adds immediate B to int local A (iinc).
	BCInc

	// Operand stack.
	BCPop
	BCPop2
	BCDup
	BCDupX1
	BCDupX2
	BCDup2
	BCSwap

	// Int arithmetic.
	BCAddI
	BCSubI
	BCMulI
	BCDivI
	BCRemI
	BCNegI
	BCShlI
	BCShrI
	BCUShrI
	BCAndI
	BCOrI
	BCXorI

	// Long arithmetic.
	BCAddL
	BCSubL
	BCMulL
	BCDivL
	BCRemL
	BCNegL
	BCShlL
	BCShrL
	BCUShrL
	BCAndL
	BCOrL
	BCXorL
	BCCmpL

	// Float arithmetic.
	BCAddF
	BCSubF
	BCMulF
	BCDivF
	BCRemF
	BCNegF
	BCCmpFL
	BCCmpFG

	// Double arithmetic.
	BCAddD
	BCSubD
	BCMulD
	BCDivD
	BCRemD
	BCNegD
	BCCmpDL
	BCCmpDG

	// Conversions.
	BCI2L
	BCI2F
	BCI2D
	BCL2I
	BCL2F
	BCL2D
	BCF2I
	BCF2L
	BCF2D
	BCD2I
	BCD2L
	BCD2F
	BCI2B
	BCI2C
	BCI2S

	// Branches. Target is the destination's bytecode index.
	BCGoto
	BCIfEQ
	BCIfNE
	BCIfLT
	BCIfGE
	BCIfGT
	BCIfLE
	BCIfICmpEQ
	BCIfICmpNE
	BCIfICmpLT
	BCIfICmpGE
	BCIfICmpGT
	BCIfICmpLE
	BCIfACmpEQ
	BCIfACmpNE
	BCIfNull
	BCIfNonNull
	// BCTableSwitch: A = low key; pool entry *Switch, Targets for
	// low..low+len-1; Target = default.
	BCTableSwitch
	// BCLookupSwitch: pool entry *Switch, Keys = sorted match keys,
	// Targets = their targets; Target = default.
	BCLookupSwitch

	// Field access. Pool entry = resolved *Field.
	BCGetField
	BCPutField
	BCGetStatic
	BCPutStatic

	// Arrays. Kind = element kind; pool entry = element *Class for
	// BCANewArray.
	BCNewArray
	BCANewArray
	BCALoad
	BCAStore
	BCArrayLen

	// Objects and calls. Pool entry = *Class, or the callee *Method.
	BCNew
	BCInvokeVirtual
	BCInvokeSpecial
	BCInvokeStatic
	BCInvokeInterface
	BCInstanceOf
	BCCheckCast

	// Returns.
	BCReturn // return a value of the method's return type
	BCReturnVoid

	// Synchronisation and exceptions.
	BCMonitorEnter
	BCMonitorExit
	BCThrow

	// NumBCOps is the number of bytecode opcodes.
	NumBCOps = iota
)

// isaElem aliases the machine-level element kind so assembler call sites
// read naturally (a.NewArray(classfile.ElemInt) via the re-exports below).
type isaElem = isa.ElemKind

// Re-exported element kinds for assembler users.
const (
	ElemBool   = isa.ElemBool
	ElemByte   = isa.ElemByte
	ElemChar   = isa.ElemChar
	ElemShort  = isa.ElemShort
	ElemInt    = isa.ElemInt
	ElemFloat  = isa.ElemFloat
	ElemLong   = isa.ElemLong
	ElemDouble = isa.ElemDouble
	ElemRef    = isa.ElemRef

	refElem = isa.ElemRef
)

// BC is one structured bytecode instruction: 16 bytes of plain numbers,
// of which an instruction uses the immediates its opcode names and at
// most one constant-pool index. Like a class file's bytecode it points
// at nothing, so one body can serve every copy of its method: a copy
// differs only in its pool. Branch targets are instruction indexes —
// the assembler's labels end at Build, which writes the bound positions
// here.
type BC struct {
	Op BCOp
	// Kind is the array element kind for array ops.
	Kind isa.ElemKind
	// Ref is the index, in the method's Pool, of the one symbolic
	// operand the opcode takes, if any: a string (BCConstStr), *Field,
	// *Method, *Class or *Switch. Read it through the typed accessors,
	// which return the zero value when the entry is missing or holds
	// something else.
	Ref uint16
	// A and B are small immediates (local index, iinc delta, switch
	// low). A wide constant's raw bits are A (low word) and B (high
	// word); read them through Wide.
	A, B int32
	// Target is the branch target, or a switch's default, as a bytecode
	// index into the method's Code.
	Target int32
}

// Switch is the operand of BCTableSwitch and BCLookupSwitch: Targets are
// bytecode indexes (for low..low+len-1, or paired with Keys); Keys holds
// lookupswitch match keys and is nil for a tableswitch. The default is
// the instruction's Target.
type Switch struct {
	Keys    []int32
	Targets []int32
}

// wide is the BC of a wide-constant opcode with raw bits v.
func wide(op BCOp, v uint64) BC { return BC{Op: op, A: int32(uint32(v)), B: int32(v >> 32)} }

// Wide returns the raw bits of a long, float or double constant.
func (bc *BC) Wide() uint64 { return uint64(uint32(bc.A)) | uint64(uint32(bc.B))<<32 }

// entry is the pool entry bc.Ref names, or nil when there is none.
func (bc *BC) entry(pool []any) any {
	if int(bc.Ref) < len(pool) {
		return pool[bc.Ref]
	}
	return nil
}

// Str returns the string literal of a BCConstStr, given its method's
// Pool.
func (bc *BC) Str(pool []any) string { s, _ := bc.entry(pool).(string); return s }

// Field returns the resolved field of a field access, or nil.
func (bc *BC) Field(pool []any) *Field { f, _ := bc.entry(pool).(*Field); return f }

// Method returns the resolved callee of an invoke, or nil.
func (bc *BC) Method(pool []any) *Method { m, _ := bc.entry(pool).(*Method); return m }

// Class returns the class operand of new / anewarray / instanceof /
// checkcast, or nil.
func (bc *BC) Class(pool []any) *Class { c, _ := bc.entry(pool).(*Class); return c }

// Switch returns the jump table of a switch, or nil.
func (bc *BC) Switch(pool []any) *Switch { sw, _ := bc.entry(pool).(*Switch); return sw }

// operandKind names what an opcode's pool entry holds.
type operandKind uint8

const (
	operandNone operandKind = iota
	operandStr
	operandField
	operandMethod
	operandClass
	operandSwitch
)

var operandNames = [...]string{operandStr: "string", operandField: "field",
	operandMethod: "method", operandClass: "class", operandSwitch: "switch"}

// check returns "" when e, the pool entry at ref, is a non-nil operand
// of kind k, and otherwise what is wrong with it.
func (k operandKind) check(ref uint16, e any) string {
	var got operandKind
	isNil := e == nil
	switch x := e.(type) {
	case string:
		got = operandStr
	case *Field:
		got, isNil = operandField, x == nil
	case *Method:
		got, isNil = operandMethod, x == nil
	case *Class:
		got, isNil = operandClass, x == nil
	case *Switch:
		got, isNil = operandSwitch, x == nil
	}
	switch {
	case isNil && k == operandStr:
		return "no string operand"
	case isNil:
		return "nil " + operandNames[k] + " ref"
	case got != k:
		return fmt.Sprintf("ref %d is a %T, not a %s", ref, e, operandNames[k])
	}
	return ""
}

// operand is the one statement of which opcodes carry a symbolic operand
// and of what type. Program.Resolve holds every instruction of every
// body to it (wellFormed), reached or not, so the verifier and the JIT
// read bc.Field, bc.Method, bc.Class and bc.Switch of these opcodes
// without a nil check of their own.
func (o BCOp) operand() operandKind {
	switch o {
	case BCConstStr:
		return operandStr
	case BCGetField, BCPutField, BCGetStatic, BCPutStatic:
		return operandField
	case BCInvokeVirtual, BCInvokeSpecial, BCInvokeStatic, BCInvokeInterface:
		return operandMethod
	case BCNew, BCANewArray, BCInstanceOf, BCCheckCast:
		return operandClass
	case BCTableSwitch, BCLookupSwitch:
		return operandSwitch
	}
	return operandNone
}

// switchTargets returns a switch's table targets (not its default);
// nil for any other opcode, whatever its Ref names.
func (bc *BC) switchTargets(pool []any) []int32 {
	if bc.Op != BCTableSwitch && bc.Op != BCLookupSwitch {
		return nil
	}
	if sw := bc.Switch(pool); sw != nil {
		return sw.Targets
	}
	return nil
}

var bcNames = [NumBCOps]string{
	BCNop: "nop", BCConstI: "iconst", BCConstL: "lconst", BCConstF: "fconst",
	BCConstD: "dconst", BCConstNull: "aconst_null", BCConstStr: "ldc_str",
	BCLoadI: "iload", BCLoadL: "lload", BCLoadF: "fload", BCLoadD: "dload",
	BCLoadRef: "aload", BCStoreI: "istore", BCStoreL: "lstore",
	BCStoreF: "fstore", BCStoreD: "dstore", BCStoreRef: "astore",
	BCInc: "iinc",
	BCPop: "pop", BCPop2: "pop2", BCDup: "dup", BCDupX1: "dup_x1",
	BCDupX2: "dup_x2", BCDup2: "dup2", BCSwap: "swap",
	BCAddI: "iadd", BCSubI: "isub", BCMulI: "imul", BCDivI: "idiv",
	BCRemI: "irem", BCNegI: "ineg", BCShlI: "ishl", BCShrI: "ishr",
	BCUShrI: "iushr", BCAndI: "iand", BCOrI: "ior", BCXorI: "ixor",
	BCAddL: "ladd", BCSubL: "lsub", BCMulL: "lmul", BCDivL: "ldiv",
	BCRemL: "lrem", BCNegL: "lneg", BCShlL: "lshl", BCShrL: "lshr",
	BCUShrL: "lushr", BCAndL: "land", BCOrL: "lor", BCXorL: "lxor",
	BCCmpL: "lcmp",
	BCAddF: "fadd", BCSubF: "fsub", BCMulF: "fmul", BCDivF: "fdiv",
	BCRemF: "frem", BCNegF: "fneg", BCCmpFL: "fcmpl", BCCmpFG: "fcmpg",
	BCAddD: "dadd", BCSubD: "dsub", BCMulD: "dmul", BCDivD: "ddiv",
	BCRemD: "drem", BCNegD: "dneg", BCCmpDL: "dcmpl", BCCmpDG: "dcmpg",
	BCI2L: "i2l", BCI2F: "i2f", BCI2D: "i2d", BCL2I: "l2i", BCL2F: "l2f",
	BCL2D: "l2d", BCF2I: "f2i", BCF2L: "f2l", BCF2D: "f2d", BCD2I: "d2i",
	BCD2L: "d2l", BCD2F: "d2f", BCI2B: "i2b", BCI2C: "i2c", BCI2S: "i2s",
	BCGoto: "goto", BCIfEQ: "ifeq", BCIfNE: "ifne", BCIfLT: "iflt",
	BCIfGE: "ifge", BCIfGT: "ifgt", BCIfLE: "ifle",
	BCIfICmpEQ: "if_icmpeq", BCIfICmpNE: "if_icmpne", BCIfICmpLT: "if_icmplt",
	BCIfICmpGE: "if_icmpge", BCIfICmpGT: "if_icmpgt", BCIfICmpLE: "if_icmple",
	BCIfACmpEQ: "if_acmpeq", BCIfACmpNE: "if_acmpne", BCIfNull: "ifnull",
	BCIfNonNull: "ifnonnull", BCTableSwitch: "tableswitch",
	BCLookupSwitch: "lookupswitch",
	BCGetField:     "getfield", BCPutField: "putfield",
	BCGetStatic: "getstatic", BCPutStatic: "putstatic",
	BCNewArray: "newarray", BCANewArray: "anewarray", BCALoad: "arrload",
	BCAStore: "arrstore", BCArrayLen: "arraylength",
	BCNew: "new", BCInvokeVirtual: "invokevirtual",
	BCInvokeSpecial: "invokespecial", BCInvokeStatic: "invokestatic",
	BCInvokeInterface: "invokeinterface", BCInstanceOf: "instanceof",
	BCCheckCast: "checkcast",
	BCReturn:    "return_value", BCReturnVoid: "return",
	BCMonitorEnter: "monitorenter", BCMonitorExit: "monitorexit",
	BCThrow: "athrow",
}

// String returns the opcode mnemonic.
func (o BCOp) String() string {
	if int(o) < NumBCOps && bcNames[o] != "" {
		return bcNames[o]
	}
	return fmt.Sprintf("bc%d", o)
}

// IsBranch reports whether the opcode transfers control to Target.
func (o BCOp) IsBranch() bool {
	return (o >= BCGoto && o <= BCLookupSwitch)
}

// IsConditional reports whether the opcode is a two-way branch.
func (o BCOp) IsConditional() bool {
	return o >= BCIfEQ && o <= BCIfNonNull
}

// EndsBlock reports whether control never falls through this opcode.
func (o BCOp) EndsBlock() bool {
	switch o {
	case BCGoto, BCTableSwitch, BCLookupSwitch, BCReturn, BCReturnVoid, BCThrow:
		return true
	}
	return false
}
