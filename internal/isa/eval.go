package isa

import "math"

// This file is the single definition of what the arithmetic, shift,
// compare and conversion opcodes compute. The VM's reference
// interpreter pops and pushes around Eval and the superblock replay
// reads and writes frame slots around it — so shift masking, the
// MinValue/-1 divides, NaN ordering and float-to-integer saturation are written
// here and nowhere else. Only the operand plumbing differs per caller,
// and only the cost tables differ per core kind.

// Arity reports how many operands Eval consumes for o: 1 or 2 for the
// opcodes Eval defines (the contiguous OpAddI..OpI2S range), 0 for
// every other opcode.
func (o Op) Arity() int {
	switch {
	case o < OpAddI || o > OpI2S:
		return 0
	case o >= OpI2L || o == OpNegI || o == OpNegL || o == OpNegF || o == OpNegD:
		return 1
	}
	return 2
}

// Eval computes one arithmetic opcode over raw 64-bit slots (Word
// layout: an int in the low half, IEEE-754 bits for float and double).
// a is the first operand pushed, b the second (the top of stack; unused
// by one-operand opcodes); aux is the instruction's A operand, which
// OpCmpF/OpCmpD return when either side is NaN (-1 for fcmpl/dcmpl, +1
// for fcmpg/dcmpg). ok is false only for an integer divide or remainder
// by zero, which the caller turns into an ArithmeticException. Eval
// panics on an opcode with Arity 0: reaching it means superblock
// discovery or the interpreter admitted an op this table does not
// define, which is a bug and not a guest-program condition.
func Eval(op Op, a, b uint64, aux int32) (uint64, bool) {
	switch op {
	case OpAddI:
		return AddI(a, b), true
	case OpSubI:
		return fromI(int32(a) - int32(b)), true
	case OpMulI:
		return fromI(int32(a) * int32(b)), true
	// Go defines MinValue / -1 as MinValue and MinValue % -1 as 0 (the
	// quotient overflows silently), which is the JVM's rule too.
	case OpDivI:
		if int32(b) != 0 {
			return fromI(int32(a) / int32(b)), true
		}
		return 0, false
	case OpRemI:
		if int32(b) != 0 {
			return fromI(int32(a) % int32(b)), true
		}
		return 0, false
	case OpNegI:
		return fromI(-int32(a)), true
	case OpAndI:
		return fromI(int32(a) & int32(b)), true
	case OpOrI:
		return fromI(int32(a) | int32(b)), true
	case OpXorI:
		return fromI(int32(a) ^ int32(b)), true
	// Shift counts use only their low 5 (int) or 6 (long) bits; a long
	// shift's count is an int.
	case OpShlI:
		return fromI(int32(a) << (uint32(b) & 31)), true
	case OpShrI:
		return fromI(int32(a) >> (uint32(b) & 31)), true
	case OpUShrI:
		return uint64(uint32(a) >> (uint32(b) & 31)), true

	case OpAddL:
		return a + b, true
	case OpSubL:
		return a - b, true
	case OpMulL:
		return a * b, true
	case OpDivL:
		if b != 0 {
			return uint64(int64(a) / int64(b)), true
		}
		return 0, false
	case OpRemL:
		if b != 0 {
			return uint64(int64(a) % int64(b)), true
		}
		return 0, false
	case OpNegL:
		return -a, true
	case OpAndL:
		return a & b, true
	case OpOrL:
		return a | b, true
	case OpXorL:
		return a ^ b, true
	case OpShlL:
		return a << (uint32(b) & 63), true
	case OpShrL:
		return uint64(int64(a) >> (uint32(b) & 63)), true
	case OpUShrL:
		return a >> (uint32(b) & 63), true
	case OpCmpL:
		return order(int64(a) < int64(b), a == b), true

	case OpAddF:
		return fromF(toF(a) + toF(b)), true
	case OpSubF:
		return fromF(toF(a) - toF(b)), true
	case OpMulF:
		return fromF(toF(a) * toF(b)), true
	case OpDivF:
		return fromF(toF(a) / toF(b)), true
	case OpNegF:
		return fromF(-toF(a)), true
	case OpRemF:
		return fromF(float32(math.Mod(float64(toF(a)), float64(toF(b))))), true
	case OpCmpF:
		if x, y := toF(a), toF(b); x == x && y == y {
			return order(x < y, x == y), true
		}
		return fromI(aux), true

	case OpAddD:
		return AddD(a, b), true
	case OpSubD:
		return SubD(a, b), true
	case OpMulD:
		return MulD(a, b), true
	case OpDivD:
		return fromD(toD(a) / toD(b)), true
	case OpNegD:
		return fromD(-toD(a)), true
	case OpRemD:
		return fromD(math.Mod(toD(a), toD(b))), true
	case OpCmpD:
		if x, y := toD(a), toD(b); x == x && y == y {
			return order(x < y, x == y), true
		}
		return fromI(aux), true

	case OpI2L:
		return uint64(int64(int32(a))), true
	case OpI2F:
		return fromF(float32(int32(a))), true
	case OpI2D:
		return fromD(float64(int32(a))), true
	case OpL2I:
		return fromI(int32(a)), true
	case OpL2F:
		return fromF(float32(int64(a))), true
	case OpL2D:
		return fromD(float64(int64(a))), true
	case OpF2I:
		return fromI(toInt(float64(toF(a)))), true
	case OpF2L:
		return uint64(toLong(float64(toF(a)))), true
	case OpF2D:
		return fromD(float64(toF(a))), true
	case OpD2I:
		return fromI(toInt(toD(a))), true
	case OpD2L:
		return uint64(toLong(toD(a))), true
	case OpD2F:
		return fromF(float32(toD(a))), true
	case OpI2B:
		return fromI(int32(int8(a))), true
	case OpI2C:
		return uint64(uint16(a)), true
	case OpI2S:
		return fromI(int32(int16(a))), true

	default:
		// Internal invariant, unreachable because the executors hand Eval
		// only the arithmetic, compare and conversion opcodes.
		panic("isa: Eval of non-arithmetic opcode " + op.String())
	}
}

// AddI, AddD, SubD and MulD are Eval's cases for the opcodes a replayed
// block evaluates most, small enough for a caller's loop to inline.
func AddI(a, b uint64) uint64 { return fromI(int32(a) + int32(b)) }
func AddD(a, b uint64) uint64 { return fromD(toD(a) + toD(b)) }
func SubD(a, b uint64) uint64 { return fromD(toD(a) - toD(b)) }
func MulD(a, b uint64) uint64 { return fromD(toD(a) * toD(b)) }

func fromI(v int32) uint64   { return uint64(uint32(v)) }
func toF(w uint64) float32   { return math.Float32frombits(uint32(w)) }
func fromF(v float32) uint64 { return uint64(math.Float32bits(v)) }
func toD(w uint64) float64   { return math.Float64frombits(w) }
func fromD(v float64) uint64 { return math.Float64bits(v) }

// order is the -1/0/1 result of the three-way compares.
func order(less, eq bool) uint64 {
	switch {
	case less:
		return fromI(-1)
	case eq:
		return 0
	}
	return 1
}

// toInt converts with Java semantics: NaN -> 0, saturating at the int
// bounds.
func toInt(v float64) int32 {
	switch {
	case v != v:
		return 0
	case v >= math.MaxInt32:
		return math.MaxInt32
	case v <= math.MinInt32:
		return math.MinInt32
	}
	return int32(v)
}

// toLong is toInt for long.
func toLong(v float64) int64 {
	switch {
	case v != v:
		return 0
	case v >= math.MaxInt64:
		return math.MaxInt64
	case v <= math.MinInt64:
		return math.MinInt64
	}
	return int64(v)
}
