package classfile

import (
	"fmt"

	"herajvm/internal/isa"
)

// BCOp is a Java-bytecode-subset opcode. Instructions are held in
// structured form (operands resolved to pointers, branch targets to
// labels) rather than serialized bytes; the JIT consumes this form.
type BCOp uint8

const (
	BCNop BCOp = iota

	// Constants. ConstI uses A; ConstL/ConstF/ConstD use W (raw bits);
	// ConstStr uses S (interned at boot); ConstNull pushes null.
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

	// Branches. Target is the destination label.
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
	// BCTableSwitch: A = low key; Table = targets for low..low+len-1;
	// Target = default.
	BCTableSwitch
	// BCLookupSwitch: Keys = sorted match keys; Table = their targets;
	// Target = default.
	BCLookupSwitch

	// Field access. F = resolved field.
	BCGetField
	BCPutField
	BCGetStatic
	BCPutStatic

	// Arrays. Kind = element kind; C = element class for BCANewArray.
	BCNewArray
	BCANewArray
	BCALoad
	BCAStore
	BCArrayLen

	// Objects and calls. C = class; M = method.
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

// Label marks a bytecode position as a branch target. Labels are created
// and bound by the Assembler.
type Label struct {
	pc    int
	bound bool
	// made is the assembler's code length when the label was created;
	// error messages name the label "L<made>".
	made int
}

// PC returns the instruction index the label is bound to.
func (l *Label) PC() int { return l.pc }

// BC is one structured bytecode instruction.
type BC struct {
	Op BCOp
	// A and B are small immediates (local index, iinc delta, switch low).
	A, B int32
	// W holds wide immediates: raw bits of long/float/double constants.
	W uint64
	// S is a string literal for BCConstStr.
	S string
	// Target is the branch target (or switch default).
	Target *Label
	// Table holds switch targets.
	Table []*Label
	// Keys holds lookupswitch match keys.
	Keys []int32
	// F, M, C are resolved member references.
	F *Field
	M *Method
	C *Class
	// Kind is the array element kind for array ops.
	Kind isa.ElemKind
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
