package isa

// Op is a simulated machine opcode. The JIT backends lower each Java
// bytecode into one or more Instrs carrying these opcodes; the VM's
// executor interprets them while the machine model charges cycles.
//
// The vocabulary is shared between the PPE and SPE backends; the backends
// differ in which sequences they emit, the encoded size of each op, and
// the cycle cost assigned to each op (see CostTable).
type Op uint8

const (
	// OpNop does nothing. Used for padding and alignment.
	OpNop Op = iota

	// --- Operand stack and local variables (ClassStack) ---

	// OpPushConst pushes a 64-bit literal (A = low 32 bits, B = high 32).
	OpPushConst
	// OpLoadLocal pushes local variable A.
	OpLoadLocal
	// OpStoreLocal pops into local variable A.
	OpStoreLocal
	// OpPop discards the top of stack.
	OpPop
	// OpPop2 discards the top two stack values.
	OpPop2
	// OpDup duplicates the top of stack.
	OpDup
	// OpDupX1 duplicates the top value beneath the second value.
	OpDupX1
	// OpDupX2 duplicates the top value beneath the third value.
	OpDupX2
	// OpDup2 duplicates the top two stack values.
	OpDup2
	// OpSwap exchanges the top two stack values.
	OpSwap
	// OpIncLocal adds immediate B to integer local A (JVM iinc).
	OpIncLocal

	// --- Integer ALU (ClassInt) ---

	OpAddI
	OpSubI
	OpMulI
	// OpDivI divides; on the SPE this is a software sequence (the SPU has
	// no scalar integer divider) and costs accordingly.
	OpDivI
	OpRemI
	OpNegI
	OpAndI
	OpOrI
	OpXorI
	OpShlI
	OpShrI
	OpUShrI

	// --- Long ALU (ClassInt) ---

	OpAddL
	OpSubL
	OpMulL
	OpDivL
	OpRemL
	OpNegL
	OpAndL
	OpOrL
	OpXorL
	OpShlL
	OpShrL
	OpUShrL
	// OpCmpL pushes -1/0/1 comparing two longs (JVM lcmp).
	OpCmpL

	// --- Float arithmetic (ClassFloat) ---

	OpAddF
	OpSubF
	OpMulF
	OpDivF
	OpNegF
	OpRemF
	// OpCmpF compares floats; A = result pushed when either is NaN
	// (-1 for fcmpl, +1 for fcmpg).
	OpCmpF

	// --- Double arithmetic (ClassFloat) ---

	OpAddD
	OpSubD
	OpMulD
	OpDivD
	OpNegD
	OpRemD
	// OpCmpD compares doubles; A = NaN result as for OpCmpF.
	OpCmpD

	// --- Conversions (ClassInt or ClassFloat per table) ---

	OpI2L
	OpI2F
	OpI2D
	OpL2I
	OpL2F
	OpL2D
	OpF2I
	OpF2L
	OpF2D
	OpD2I
	OpD2L
	OpD2F
	OpI2B
	OpI2C
	OpI2S

	// --- Control transfer (ClassBranch) ---

	// OpGoto jumps unconditionally to instruction index A.
	OpGoto
	// OpIf pops an int and jumps to B when it satisfies condition A
	// (Cond*) compared against zero.
	OpIf
	// OpIfCmpI pops two ints and jumps to B when they satisfy condition A.
	OpIfCmpI
	// OpIfCmpRef pops two references and jumps to B on CondEQ/CondNE (A).
	OpIfCmpRef
	// OpIfNull pops a reference; jumps to B when it is null (A=0) or
	// non-null (A=1).
	OpIfNull
	// OpTableSwitch pops an index; A = low bound, B = default target,
	// C = index of the jump table in the method's Tables.
	OpTableSwitch
	// OpLookupSwitch pops a key; B = default target, C = index of the
	// key/target table in the method's Tables (keys at even positions).
	OpLookupSwitch

	// --- Calls and returns (ClassBranch; code-cache interaction on SPE) ---

	// OpCallStatic invokes the method with global method ID A.
	OpCallStatic
	// OpCallSpecial invokes method ID A non-virtually (constructors,
	// private methods, super calls).
	OpCallSpecial
	// OpCallVirtual pops a receiver and invokes vtable slot A; B is the
	// statically resolved declaring-class ID (for diagnostics).
	OpCallVirtual
	// OpCallInterface pops a receiver and invokes the interface method
	// with global interface-method ID A via itable search.
	OpCallInterface
	// OpReturn returns from the current method; A=1 when a value is
	// returned on the operand stack.
	OpReturn

	// --- Heap access (ClassLocalMem / ClassMainMem, charged dynamically) ---

	// OpGetField pops a reference and pushes field at byte offset A.
	// B carries FlagVolatile (see field flags).
	OpGetField
	// OpPutField pops value then reference, stores at byte offset A.
	OpPutField
	// OpGetStatic pushes static slot A (B = flags).
	OpGetStatic
	// OpPutStatic pops into static slot A (B = flags).
	OpPutStatic
	// OpALoad pops index and array ref, pushes element (A = ElemKind).
	OpALoad
	// OpAStore pops value, index, array ref and stores (A = ElemKind).
	OpAStore
	// OpArrayLen pops an array reference and pushes its length.
	OpArrayLen

	// --- Allocation and type tests ---

	// OpNew allocates an instance of class ID A and pushes the reference.
	OpNew
	// OpNewArray pops a length and allocates a primitive array of
	// ElemKind A.
	OpNewArray
	// OpANewArray pops a length and allocates a reference array whose
	// element class is A.
	OpANewArray
	// OpInstanceOf pops a reference, pushes 1 if instance of class A.
	OpInstanceOf
	// OpCheckCast traps unless top of stack is null or instance of A.
	OpCheckCast

	// --- Synchronisation (JMM purge/flush points on the SPE) ---

	// OpMonitorEnter pops a reference and acquires its monitor. On the
	// SPE the software data cache is purged after acquisition (§3.2.1).
	OpMonitorEnter
	// OpMonitorExit pops a reference and releases its monitor. On the
	// SPE dirty cached data is flushed before release (§3.2.1).
	OpMonitorExit

	// OpThrow pops a throwable reference and unwinds to a handler (or
	// terminates the thread with a trap if none exists).
	OpThrow

	// NumOps is the number of machine opcodes.
	NumOps = iota
)

// Condition codes for OpIf / OpIfCmpI / OpIfCmpRef.
const (
	CondEQ int32 = iota
	CondNE
	CondLT
	CondGE
	CondGT
	CondLE
)

// Field/static access flag bits carried in Instr.B of Get/Put ops.
const (
	// FlagVolatile marks a volatile access: the SPE purges its data cache
	// before a volatile read and flushes dirty data before a volatile
	// write, per the paper's coherence protocol.
	FlagVolatile int32 = 1 << iota
)

// ElemKind identifies a primitive or reference array element type and its
// in-memory width. The values match the operand encoding used by
// OpALoad/OpAStore/OpNewArray.
type ElemKind uint8

const (
	ElemBool ElemKind = iota
	ElemByte
	ElemChar
	ElemShort
	ElemInt
	ElemFloat
	ElemLong
	ElemDouble
	ElemRef

	// NumElemKinds is the number of array element kinds.
	NumElemKinds = int(ElemRef) + 1
)

var elemSizes = [NumElemKinds]uint32{1, 1, 2, 2, 4, 4, 8, 8, 4}

// Size returns the in-memory width of an array element of this kind in
// bytes. References are 4 bytes (the simulated machine is 32-bit
// addressed, like the PS3's 256 MB Cell configuration).
func (k ElemKind) Size() uint32 { return elemSizes[k] }

var elemNames = [NumElemKinds]string{
	"bool", "byte", "char", "short", "int", "float", "long", "double", "ref",
}

// String returns the element kind's Java-ish name.
func (k ElemKind) String() string {
	if int(k) < NumElemKinds {
		return elemNames[k]
	}
	return "?"
}

var opNames = [NumOps]string{
	OpNop: "nop", OpPushConst: "pushconst", OpLoadLocal: "loadlocal",
	OpStoreLocal: "storelocal", OpPop: "pop", OpPop2: "pop2", OpDup: "dup",
	OpDupX1: "dup_x1", OpDupX2: "dup_x2", OpDup2: "dup2", OpSwap: "swap",
	OpIncLocal: "inclocal",
	OpAddI:     "addi", OpSubI: "subi", OpMulI: "muli", OpDivI: "divi",
	OpRemI: "remi", OpNegI: "negi", OpAndI: "andi", OpOrI: "ori",
	OpXorI: "xori", OpShlI: "shli", OpShrI: "shri", OpUShrI: "ushri",
	OpAddL: "addl", OpSubL: "subl", OpMulL: "mull", OpDivL: "divl",
	OpRemL: "reml", OpNegL: "negl", OpAndL: "andl", OpOrL: "orl",
	OpXorL: "xorl", OpShlL: "shll", OpShrL: "shrl", OpUShrL: "ushrl",
	OpCmpL: "cmpl",
	OpAddF: "addf", OpSubF: "subf", OpMulF: "mulf", OpDivF: "divf",
	OpNegF: "negf", OpRemF: "remf", OpCmpF: "cmpf",
	OpAddD: "addd", OpSubD: "subd", OpMulD: "muld", OpDivD: "divd",
	OpNegD: "negd", OpRemD: "remd", OpCmpD: "cmpd",
	OpI2L: "i2l", OpI2F: "i2f", OpI2D: "i2d", OpL2I: "l2i", OpL2F: "l2f",
	OpL2D: "l2d", OpF2I: "f2i", OpF2L: "f2l", OpF2D: "f2d", OpD2I: "d2i",
	OpD2L: "d2l", OpD2F: "d2f", OpI2B: "i2b", OpI2C: "i2c", OpI2S: "i2s",
	OpGoto: "goto", OpIf: "if", OpIfCmpI: "ifcmpi", OpIfCmpRef: "ifcmpref",
	OpIfNull: "ifnull", OpTableSwitch: "tableswitch",
	OpLookupSwitch: "lookupswitch",
	OpCallStatic:   "callstatic", OpCallSpecial: "callspecial",
	OpCallVirtual: "callvirtual", OpCallInterface: "callinterface",
	OpReturn:   "return",
	OpGetField: "getfield", OpPutField: "putfield", OpGetStatic: "getstatic",
	OpPutStatic: "putstatic", OpALoad: "aload", OpAStore: "astore",
	OpArrayLen: "arraylen",
	OpNew:      "new", OpNewArray: "newarray", OpANewArray: "anewarray",
	OpInstanceOf: "instanceof", OpCheckCast: "checkcast",
	OpMonitorEnter: "monitorenter", OpMonitorExit: "monitorexit",
	OpThrow: "throw",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if int(o) < NumOps && opNames[o] != "" {
		return opNames[o]
	}
	return "op?"
}

// classOf maps each opcode to its static operation class. Heap-access
// opcodes are assigned ClassLocalMem here; the executor re-classifies the
// dynamic portion of their cost (DMA waits, cache-line misses) as
// ClassMainMem based on actual cache behaviour.
var classOf = [NumOps]OpClass{
	OpNop: ClassStack, OpPushConst: ClassStack, OpLoadLocal: ClassStack,
	OpStoreLocal: ClassStack, OpPop: ClassStack, OpPop2: ClassStack,
	OpDup: ClassStack, OpDupX1: ClassStack, OpDupX2: ClassStack,
	OpDup2: ClassStack, OpSwap: ClassStack, OpIncLocal: ClassStack,
	OpAddI: ClassInt, OpSubI: ClassInt, OpMulI: ClassInt, OpDivI: ClassInt,
	OpRemI: ClassInt, OpNegI: ClassInt, OpAndI: ClassInt, OpOrI: ClassInt,
	OpXorI: ClassInt, OpShlI: ClassInt, OpShrI: ClassInt, OpUShrI: ClassInt,
	OpAddL: ClassInt, OpSubL: ClassInt, OpMulL: ClassInt, OpDivL: ClassInt,
	OpRemL: ClassInt, OpNegL: ClassInt, OpAndL: ClassInt, OpOrL: ClassInt,
	OpXorL: ClassInt, OpShlL: ClassInt, OpShrL: ClassInt, OpUShrL: ClassInt,
	OpCmpL: ClassInt,
	OpAddF: ClassFloat, OpSubF: ClassFloat, OpMulF: ClassFloat,
	OpDivF: ClassFloat, OpNegF: ClassFloat, OpRemF: ClassFloat,
	OpCmpF: ClassFloat,
	OpAddD: ClassFloat, OpSubD: ClassFloat, OpMulD: ClassFloat,
	OpDivD: ClassFloat, OpNegD: ClassFloat, OpRemD: ClassFloat,
	OpCmpD: ClassFloat,
	OpI2L:  ClassInt, OpI2F: ClassFloat, OpI2D: ClassFloat, OpL2I: ClassInt,
	OpL2F: ClassFloat, OpL2D: ClassFloat, OpF2I: ClassFloat,
	OpF2L: ClassFloat, OpF2D: ClassFloat, OpD2I: ClassFloat,
	OpD2L: ClassFloat, OpD2F: ClassFloat, OpI2B: ClassInt, OpI2C: ClassInt,
	OpI2S:  ClassInt,
	OpGoto: ClassBranch, OpIf: ClassBranch, OpIfCmpI: ClassBranch,
	OpIfCmpRef: ClassBranch, OpIfNull: ClassBranch,
	OpTableSwitch: ClassBranch, OpLookupSwitch: ClassBranch,
	OpCallStatic: ClassBranch, OpCallSpecial: ClassBranch,
	OpCallVirtual: ClassBranch, OpCallInterface: ClassBranch,
	OpReturn:   ClassBranch,
	OpGetField: ClassLocalMem, OpPutField: ClassLocalMem,
	OpGetStatic: ClassLocalMem, OpPutStatic: ClassLocalMem,
	OpALoad: ClassLocalMem, OpAStore: ClassLocalMem,
	OpArrayLen: ClassLocalMem,
	OpNew:      ClassMainMem, OpNewArray: ClassMainMem,
	OpANewArray:  ClassMainMem,
	OpInstanceOf: ClassInt, OpCheckCast: ClassInt,
	OpMonitorEnter: ClassMainMem, OpMonitorExit: ClassMainMem,
	OpThrow: ClassBranch,
}

// MemShape reports the operand-stack shape of the seven array, field
// and static access opcodes: how many operands the op pops and whether
// it pushes a loaded value.
func (o Op) MemShape() (pops int, loads bool) {
	switch o {
	case OpGetStatic:
		return 0, true
	case OpGetField, OpArrayLen:
		return 1, true
	case OpALoad:
		return 2, true
	case OpPutStatic:
		return 1, false
	case OpPutField:
		return 2, false
	case OpAStore:
		return 3, false
	}
	return 0, false
}

// Class returns the static operation class of an opcode.
func (o Op) Class() OpClass {
	if int(o) < NumOps {
		return classOf[o]
	}
	return ClassInt
}
