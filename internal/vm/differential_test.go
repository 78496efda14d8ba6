package vm

import (
	"math"
	"math/rand"
	"testing"

	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// TestDifferentialIntPrograms generates random straight-line integer
// programs, executes them both on the VM (on the PPE and on an SPE) and
// on a direct Go mirror of the stack machine, and requires identical
// results. This is the executor's strongest correctness test: any
// divergence in arithmetic semantics, stack discipline or operand order
// shows up immediately.
func TestDifferentialIntPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(20090518)) // HotOS XII's opening day
	for trial := 0; trial < 60; trial++ {
		prog, mirror := genIntProgram(rng, 40)
		for _, kind := range []isa.CoreKind{isa.PPE, isa.SPE} {
			cfg := testConfig()
			cfg.Policy = FixedPolicy{Kind: kind}
			vmach, err := New(cfg, prog())
			if err != nil {
				t.Fatal(err)
			}
			th, err := runEntry(vmach, "Gen", "main")
			if err != nil {
				t.Fatalf("trial %d on %v: %v", trial, kind, err)
			}
			if got := int32(uint32(th.Result)); got != mirror {
				t.Fatalf("trial %d on %v: vm=%d mirror=%d", trial, kind, got, mirror)
			}
		}
	}
}

// genIntProgram builds a random straight-line int program of n ops and
// returns a program factory plus the mirrored result. The generator
// tracks the Go-side stack and only emits ops valid at the current
// depth; division uses guarded constants so no trap fires.
func genIntProgram(rng *rand.Rand, n int) (func() *classfile.Program, int32) {
	type op struct {
		emit   func(a *classfile.Asm)
		mirror func(stack []int32) []int32
	}
	var ops []op
	depth := 0

	pushConst := func() op {
		v := int32(rng.Intn(2001) - 1000)
		return op{
			emit:   func(a *classfile.Asm) { a.ConstI(v) },
			mirror: func(s []int32) []int32 { return append(s, v) },
		}
	}
	bin := func(emit func(a *classfile.Asm), f func(x, y int32) int32) op {
		return op{
			emit: emit,
			mirror: func(s []int32) []int32 {
				y, x := s[len(s)-1], s[len(s)-2]
				return append(s[:len(s)-2], f(x, y))
			},
		}
	}
	for len(ops) < n {
		switch {
		case depth < 2:
			ops = append(ops, pushConst())
			depth++
		default:
			switch rng.Intn(12) {
			case 0:
				ops = append(ops, pushConst())
				depth++
			case 1:
				ops = append(ops, bin(func(a *classfile.Asm) { a.AddI() },
					func(x, y int32) int32 { return x + y }))
				depth--
			case 2:
				ops = append(ops, bin(func(a *classfile.Asm) { a.SubI() },
					func(x, y int32) int32 { return x - y }))
				depth--
			case 3:
				ops = append(ops, bin(func(a *classfile.Asm) { a.MulI() },
					func(x, y int32) int32 { return x * y }))
				depth--
			case 4:
				ops = append(ops, bin(func(a *classfile.Asm) { a.AndI() },
					func(x, y int32) int32 { return x & y }))
				depth--
			case 5:
				ops = append(ops, bin(func(a *classfile.Asm) { a.OrI() },
					func(x, y int32) int32 { return x | y }))
				depth--
			case 6:
				ops = append(ops, bin(func(a *classfile.Asm) { a.XorI() },
					func(x, y int32) int32 { return x ^ y }))
				depth--
			case 7:
				ops = append(ops, bin(func(a *classfile.Asm) { a.ShlI() },
					func(x, y int32) int32 { return x << (uint32(y) & 31) }))
				depth--
			case 8:
				ops = append(ops, bin(func(a *classfile.Asm) { a.ShrI() },
					func(x, y int32) int32 { return x >> (uint32(y) & 31) }))
				depth--
			case 9:
				ops = append(ops, bin(func(a *classfile.Asm) { a.UShrI() },
					func(x, y int32) int32 { return int32(uint32(x) >> (uint32(y) & 31)) }))
				depth--
			case 10: // guarded divide by a nonzero constant
				d := int32(rng.Intn(99) + 1)
				if rng.Intn(2) == 0 {
					d = -d
				}
				ops = append(ops, op{
					emit: func(a *classfile.Asm) { a.ConstI(d); a.DivI() },
					mirror: func(s []int32) []int32 {
						x := s[len(s)-1]
						return append(s[:len(s)-1], javaDivI(x, d))
					},
				})
			case 11: // unary ops
				switch rng.Intn(3) {
				case 0:
					ops = append(ops, op{
						emit:   func(a *classfile.Asm) { a.NegI() },
						mirror: func(s []int32) []int32 { s[len(s)-1] = -s[len(s)-1]; return s },
					})
				case 1:
					ops = append(ops, op{
						emit:   func(a *classfile.Asm) { a.I2B() },
						mirror: func(s []int32) []int32 { s[len(s)-1] = int32(int8(s[len(s)-1])); return s },
					})
				default:
					ops = append(ops, op{
						emit:   func(a *classfile.Asm) { a.I2C() },
						mirror: func(s []int32) []int32 { s[len(s)-1] = int32(uint16(s[len(s)-1])); return s },
					})
				}
			}
		}
	}
	// Fold the stack down to one value.
	for depth > 1 {
		ops = append(ops, bin(func(a *classfile.Asm) { a.XorI() },
			func(x, y int32) int32 { return x ^ y }))
		depth--
	}

	var stack []int32
	for _, o := range ops {
		stack = o.mirror(stack)
	}
	mirror := stack[0]

	factory := func() *classfile.Program {
		p := newProg()
		c := p.NewClass("Gen", nil)
		m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
		a := m.Asm()
		for _, o := range ops {
			o.emit(a)
		}
		a.Ret()
		a.MustBuild()
		return p
	}
	return factory, mirror
}

func javaDivI(a, b int32) int32 {
	if a == math.MinInt32 && b == -1 {
		return math.MinInt32
	}
	return a / b
}

// TestDifferentialDoublePrograms does the same for double arithmetic
// (whose bit-exactness the workload checksums depend on).
func TestDifferentialDoublePrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		consts := make([]float64, 8)
		for i := range consts {
			consts[i] = (rng.Float64() - 0.5) * 1e3
		}
		kinds := make([]int, 30)
		for i := range kinds {
			kinds[i] = rng.Intn(4)
		}

		// Mirror: fold left with alternating ops.
		acc := consts[0]
		for i, k := range kinds {
			c := consts[(i+1)%len(consts)]
			switch k {
			case 0:
				acc = acc + c
			case 1:
				acc = acc - c
			case 2:
				acc = acc * c
			default:
				acc = acc / c
			}
		}
		want := math.Float64bits(acc)

		p := newProg()
		cls := p.NewClass("GenD", nil)
		m := cls.NewMethod("main", classfile.FlagStatic, classfile.Long)
		a := m.Asm()
		a.ConstD(consts[0])
		for i, k := range kinds {
			a.ConstD(consts[(i+1)%len(consts)])
			switch k {
			case 0:
				a.AddD()
			case 1:
				a.SubD()
			case 2:
				a.MulD()
			default:
				a.DivD()
			}
		}
		// Return the raw bits so NaNs compare exactly.
		a.D2L()
		a.Ret()
		a.MustBuild()

		// D2L truncates; compare via the double's integer part instead
		// unless non-finite. To keep it bit-exact, mirror the same D2L.
		wantL := d2l(math.Float64frombits(want))

		cfg := testConfig()
		cfg.Policy = FixedPolicy{Kind: isa.SPE}
		vmach, err := New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		th, err := runEntry(vmach, "GenD", "main")
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := int64(th.Result); got != wantL {
			t.Fatalf("trial %d: vm=%d mirror=%d", trial, got, wantL)
		}
	}
}
