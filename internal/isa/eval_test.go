package isa

import (
	"math"
	"testing"
)

// Operand encoders for the table below (the Word layout Eval reads),
// kept apart from eval.go's own so a bug there cannot encode the
// expectations the same wrong way.
func wI(v int32) uint64   { return uint64(uint32(v)) }
func wL(v int64) uint64   { return uint64(v) }
func wF(v float32) uint64 { return uint64(math.Float32bits(v)) }
func wD(v float64) uint64 { return math.Float64bits(v) }

// TestEvalJVMSpec checks the one evaluator against literals taken from
// the JVM specification's instruction descriptions (JVMS §6.5) and the
// JLS rules they cite (§4.2.2 integer ops, §5.1.3 narrowing, §15.17.3
// remainder, §15.19 shifts) — not against another copy of the code.
func TestEvalJVMSpec(t *testing.T) {
	nan32, nan64 := float32(math.NaN()), math.NaN()
	inf32, inf64 := float32(math.Inf(1)), math.Inf(1)
	negZero32, negZero64 := float32(math.Copysign(0, -1)), math.Copysign(0, -1)
	tests := []struct {
		name string
		op   Op
		a, b uint64
		aux  int32
		want uint64
	}{
		// idiv/ldiv: "if the dividend is the negative integer of largest
		// possible magnitude and the divisor is -1, then overflow occurs,
		// and the result is equal to the dividend"; irem/lrem then give 0.
		{"idiv MIN/-1", OpDivI, wI(math.MinInt32), wI(-1), 0, wI(math.MinInt32)},
		{"irem MIN%-1", OpRemI, wI(math.MinInt32), wI(-1), 0, wI(0)},
		{"ldiv MIN/-1", OpDivL, wL(math.MinInt64), wL(-1), 0, wL(math.MinInt64)},
		{"lrem MIN%-1", OpRemL, wL(math.MinInt64), wL(-1), 0, wL(0)},
		// Division rounds toward zero; the remainder takes the dividend's sign.
		{"idiv -7/2", OpDivI, wI(-7), wI(2), 0, wI(-3)},
		{"irem -7%2", OpRemI, wI(-7), wI(2), 0, wI(-1)},
		{"irem 7%-2", OpRemI, wI(7), wI(-2), 0, wI(1)},
		{"ldiv -7/2", OpDivL, wL(-7), wL(2), 0, wL(-3)},
		{"lrem -7%2", OpRemL, wL(-7), wL(2), 0, wL(-1)},
		// Overflow wraps.
		{"iadd MAX+1", OpAddI, wI(math.MaxInt32), wI(1), 0, wI(math.MinInt32)},
		{"imul wrap", OpMulI, wI(65536), wI(65536), 0, wI(0)},
		{"ineg MIN", OpNegI, wI(math.MinInt32), 0, 0, wI(math.MinInt32)},
		{"lneg MIN", OpNegL, wL(math.MinInt64), 0, 0, wL(math.MinInt64)},

		// Shifts use the low 5 (int) or 6 (long) bits of the count, so a
		// count >= the width or a negative count is masked, not saturated.
		{"ishl by 32", OpShlI, wI(1), wI(32), 0, wI(1)},
		{"ishl by 33", OpShlI, wI(1), wI(33), 0, wI(2)},
		{"ishl by -1", OpShlI, wI(1), wI(-1), 0, wI(math.MinInt32)},
		{"ishr by 32", OpShrI, wI(-8), wI(32), 0, wI(-8)},
		{"ishr by -1", OpShrI, wI(-8), wI(-1), 0, wI(-1)},
		{"ishr sign", OpShrI, wI(-8), wI(1), 0, wI(-4)},
		{"iushr by -1", OpUShrI, wI(-1), wI(-1), 0, wI(1)},
		{"iushr by 28", OpUShrI, wI(-1), wI(28), 0, wI(15)},
		{"iushr by 32", OpUShrI, wI(-1), wI(32), 0, wI(-1)},
		{"lshl by 64", OpShlL, wL(1), wI(64), 0, wL(1)},
		{"lshl by 65", OpShlL, wL(1), wI(65), 0, wL(2)},
		{"lshl by -1", OpShlL, wL(1), wI(-1), 0, wL(math.MinInt64)},
		{"lshl by 32", OpShlL, wL(1), wI(32), 0, wL(1 << 32)},
		{"lshr by -1", OpShrL, wL(-8), wI(-1), 0, wL(-1)},
		{"lushr by -1", OpUShrL, wL(-1), wI(-1), 0, wL(1)},
		{"lushr by 60", OpUShrL, wL(-1), wI(60), 0, wL(15)},

		{"lcmp <", OpCmpL, wL(math.MinInt64), wL(1), 0, wI(-1)},
		{"lcmp =", OpCmpL, wL(5), wL(5), 0, wI(0)},
		{"lcmp >", OpCmpL, wL(1), wL(-1), 0, wI(1)},

		// fcmpl/dcmpl push -1 and fcmpg/dcmpg push 1 when either operand
		// is NaN (aux carries which); otherwise both order normally, with
		// positive and negative zero equal.
		{"fcmpl NaN,1", OpCmpF, wF(nan32), wF(1), -1, wI(-1)},
		{"fcmpl 1,NaN", OpCmpF, wF(1), wF(nan32), -1, wI(-1)},
		{"fcmpg NaN,1", OpCmpF, wF(nan32), wF(1), 1, wI(1)},
		{"fcmpg 1,NaN", OpCmpF, wF(1), wF(nan32), 1, wI(1)},
		{"fcmpg 1,2", OpCmpF, wF(1), wF(2), 1, wI(-1)},
		{"fcmpl 2,1", OpCmpF, wF(2), wF(1), -1, wI(1)},
		{"fcmpl 0,-0", OpCmpF, wF(0), wF(negZero32), -1, wI(0)},
		{"dcmpl NaN,1", OpCmpD, wD(nan64), wD(1), -1, wI(-1)},
		{"dcmpl 1,NaN", OpCmpD, wD(1), wD(nan64), -1, wI(-1)},
		{"dcmpg NaN,1", OpCmpD, wD(nan64), wD(1), 1, wI(1)},
		{"dcmpg 1,NaN", OpCmpD, wD(1), wD(nan64), 1, wI(1)},
		{"dcmpg 1,2", OpCmpD, wD(1), wD(2), 1, wI(-1)},
		{"dcmpl -inf,inf", OpCmpD, wD(-inf64), wD(inf64), -1, wI(-1)},
		{"dcmpl 0,-0", OpCmpD, wD(0), wD(negZero64), -1, wI(0)},

		// f2i/d2i/f2l/d2l: NaN -> 0; out-of-range values and infinities
		// saturate; everything else rounds toward zero.
		{"f2i NaN", OpF2I, wF(nan32), 0, 0, wI(0)},
		{"f2i +Inf", OpF2I, wF(inf32), 0, 0, wI(math.MaxInt32)},
		{"f2i -Inf", OpF2I, wF(-inf32), 0, 0, wI(math.MinInt32)},
		{"f2i 2^31", OpF2I, wF(2147483648), 0, 0, wI(math.MaxInt32)},
		{"f2i -2^31-256", OpF2I, wF(-2147483904), 0, 0, wI(math.MinInt32)},
		{"f2i -1.9", OpF2I, wF(-1.9), 0, 0, wI(-1)},
		{"d2i NaN", OpD2I, wD(nan64), 0, 0, wI(0)},
		{"d2i +Inf", OpD2I, wD(inf64), 0, 0, wI(math.MaxInt32)},
		{"d2i -Inf", OpD2I, wD(-inf64), 0, 0, wI(math.MinInt32)},
		{"d2i MAX+0.5", OpD2I, wD(2147483647.5), 0, 0, wI(math.MaxInt32)},
		{"d2i MAX+1", OpD2I, wD(2147483648), 0, 0, wI(math.MaxInt32)},
		{"d2i MIN-1", OpD2I, wD(-2147483649), 0, 0, wI(math.MinInt32)},
		{"d2i MIN+0.5", OpD2I, wD(-2147483647.5), 0, 0, wI(-2147483647)},
		{"d2i 1e10", OpD2I, wD(1e10), 0, 0, wI(math.MaxInt32)},
		{"f2l NaN", OpF2L, wF(nan32), 0, 0, wL(0)},
		{"f2l +Inf", OpF2L, wF(inf32), 0, 0, wL(math.MaxInt64)},
		{"f2l -Inf", OpF2L, wF(-inf32), 0, 0, wL(math.MinInt64)},
		{"f2l 2^63", OpF2L, wF(9223372036854775808), 0, 0, wL(math.MaxInt64)},
		{"f2l 2^62", OpF2L, wF(4611686018427387904), 0, 0, wL(1 << 62)},
		{"d2l NaN", OpD2L, wD(nan64), 0, 0, wL(0)},
		{"d2l +Inf", OpD2L, wD(inf64), 0, 0, wL(math.MaxInt64)},
		{"d2l -Inf", OpD2L, wD(-inf64), 0, 0, wL(math.MinInt64)},
		{"d2l 2^63", OpD2L, wD(9223372036854775808), 0, 0, wL(math.MaxInt64)},
		{"d2l -2^63-2048", OpD2L, wD(-9223372036854777856), 0, 0, wL(math.MinInt64)},
		{"d2l -2.5", OpD2L, wD(-2.5), 0, 0, wL(-2)},

		// i2b and i2s sign-extend the truncated value; i2c zero-extends.
		{"i2b 0x80", OpI2B, wI(0x80), 0, 0, wI(-128)},
		{"i2b 0x17f", OpI2B, wI(0x17f), 0, 0, wI(127)},
		{"i2b -1", OpI2B, wI(-1), 0, 0, wI(-1)},
		{"i2c -1", OpI2C, wI(-1), 0, 0, wI(65535)},
		{"i2c 0x18000", OpI2C, wI(0x18000), 0, 0, wI(0x8000)},
		{"i2s 0x8000", OpI2S, wI(0x8000), 0, 0, wI(-32768)},
		{"i2s 0x17fff", OpI2S, wI(0x17fff), 0, 0, wI(32767)},
		{"i2l -1", OpI2L, wI(-1), 0, 0, wL(-1)},
		{"l2i 0x1ffffffff", OpL2I, wL(0x1ffffffff), 0, 0, wI(-1)},
		{"i2f 2^24+1", OpI2F, wI(16777217), 0, 0, wF(16777216)},
		{"l2d MIN", OpL2D, wL(math.MinInt64), 0, 0, wD(-9223372036854775808)},
		{"d2f 1e40", OpD2F, wD(1e40), 0, 0, wF(inf32)},

		// frem/drem: the result's sign equals the dividend's, including
		// for a zero result; x % Inf is x; Inf % x and x % 0 are NaN
		// (checked separately below, NaN has many encodings).
		{"frem -0%1", OpRemF, wF(negZero32), wF(1), 0, wF(negZero32)},
		{"frem -4%2", OpRemF, wF(-4), wF(2), 0, wF(negZero32)},
		{"frem 4%-2", OpRemF, wF(4), wF(-2), 0, wF(0)},
		{"frem 5.5%-2", OpRemF, wF(5.5), wF(-2), 0, wF(1.5)},
		{"frem -5.5%2", OpRemF, wF(-5.5), wF(2), 0, wF(-1.5)},
		{"frem 3%Inf", OpRemF, wF(3), wF(inf32), 0, wF(3)},
		{"drem -0%1", OpRemD, wD(negZero64), wD(1), 0, wD(negZero64)},
		{"drem -4%2", OpRemD, wD(-4), wD(2), 0, wD(negZero64)},
		{"drem 4%-2", OpRemD, wD(4), wD(-2), 0, wD(0)},
		{"drem 5.5%-2", OpRemD, wD(5.5), wD(-2), 0, wD(1.5)},
		{"drem -3%Inf", OpRemD, wD(-3), wD(inf64), 0, wD(-3)},
		{"dneg 0", OpNegD, wD(0), 0, 0, wD(negZero64)},
		{"fneg 0", OpNegF, wF(0), 0, 0, wF(negZero32)},
		{"ddiv 1/-0", OpDivD, wD(1), wD(negZero64), 0, wD(-inf64)},
	}
	for _, tc := range tests {
		got, ok := Eval(tc.op, tc.a, tc.b, tc.aux)
		if !ok || got != tc.want {
			t.Errorf("%s: Eval(%v, %#x, %#x, %d) = %#x, %v; want %#x, true",
				tc.name, tc.op, tc.a, tc.b, tc.aux, got, ok, tc.want)
		}
	}

	nans := []struct {
		name   string
		op     Op
		a, b   uint64
		double bool
	}{
		{"frem Inf%2", OpRemF, wF(inf32), wF(2), false},
		{"frem 2%0", OpRemF, wF(2), wF(0), false},
		{"fdiv 0/0", OpDivF, wF(0), wF(0), false},
		{"drem Inf%2", OpRemD, wD(inf64), wD(2), true},
		{"drem 2%0", OpRemD, wD(2), wD(0), true},
		{"dsub Inf-Inf", OpSubD, wD(inf64), wD(inf64), true},
	}
	for _, tc := range nans {
		got, ok := Eval(tc.op, tc.a, tc.b, 0)
		v := float64(math.Float32frombits(uint32(got)))
		if tc.double {
			v = math.Float64frombits(got)
		}
		if !ok || !math.IsNaN(v) {
			t.Errorf("%s: Eval = %#x, %v; want NaN, true", tc.name, got, ok)
		}
	}

	// Integer division by zero is the only trap: ok is false and the
	// caller raises ArithmeticException.
	for _, op := range []Op{OpDivI, OpRemI, OpDivL, OpRemL} {
		if _, ok := Eval(op, 7, 0, 0); ok {
			t.Errorf("Eval(%v, 7, 0) reported no trap", op)
		}
	}
}

// TestArityMatchesEval pins Arity to what Eval defines: Eval must accept
// every op with a nonzero Arity and panic on every other, so a new
// opcode cannot land inside the OpAddI..OpI2S range unevaluated.
func TestArityMatchesEval(t *testing.T) {
	for o := Op(0); int(o) < NumOps; o++ {
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			Eval(o, 1, 1, 0)
			return
		}()
		if (o.Arity() == 0) != panicked {
			t.Errorf("%v: Arity %d but Eval panicked = %v", o, o.Arity(), panicked)
		}
	}
}
