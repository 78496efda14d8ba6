package workloads

import (
	"herajvm/internal/classfile"
)

// Matmul parameters: a scale of s multiplies two dense (16s x 16s)
// double matrices. The kernel iterates output rows, so a chunk is a
// band of rows and each worker reads all of B but only its band of A —
// the classic SPMD decomposition TornadoVM's matrix-multiply demo uses.
const matmulDefaultScale = 4

func matmulN(scale int) int32 { return int32(16 * scale) }

// Matmul returns the dense matrix-multiply kernel workload: the
// FP-multiply-add-bound member of the showcase set. Each (row, col)
// dot product contributes (int)(s * 16) to the checksum — a
// per-iteration term, so the total is invariant under any row split.
func Matmul() Spec {
	return Spec{
		Name:         "matmul",
		MainClass:    "MatmulKernel",
		ScalarClass:  "MatmulScalar",
		DefaultScale: matmulDefaultScale,
		Reference:    refMatmul,
		build:        buildMatmul,
	}
}

func buildMatmul(ns namespace, _, scale int) {
	n := matmulN(scale)
	h := newKernelHarness(ns, "MatmulBody")
	aF := h.body.NewField("a", classfile.Ref)
	bF := h.body.NewField("b", classfile.Ref)
	nF := h.body.NewField("n", classfile.Int)

	// run(from, to): rows [from, to) of C = A x B, checksummed.
	// Locals: 0=this 1=from 2=to 3=i 4=j 5=k 6=chk 7=s 8=n 9=a 10=b
	//         11=ibase 12=kb
	const (
		lI, lJ, lK, lChk, lS = 3, 4, 5, 6, 7
		lN, lA, lB, lIb, lKb = 8, 9, 10, 11, 12
	)
	a := h.run.Asm()
	a.ConstI(0)
	a.StoreI(lChk)
	a.LoadRef(0)
	a.GetField(nF)
	a.StoreI(lN)
	a.LoadRef(0)
	a.GetField(aF)
	a.StoreRef(lA)
	a.LoadRef(0)
	a.GetField(bF)
	a.StoreRef(lB)

	a.LoadI(1)
	a.StoreI(lI)
	rowLoop, rowDone := a.NewLabel(), a.NewLabel()
	a.Bind(rowLoop)
	a.LoadI(lI)
	a.LoadI(2)
	a.IfICmpGE(rowDone)
	// ibase = i * n
	a.LoadI(lI)
	a.LoadI(lN)
	a.MulI()
	a.StoreI(lIb)

	a.ConstI(0)
	a.StoreI(lJ)
	colLoop, colDone := a.NewLabel(), a.NewLabel()
	a.Bind(colLoop)
	a.LoadI(lJ)
	a.LoadI(lN)
	a.IfICmpGE(colDone)
	// s = 0; kb = j  (kb walks column j of B, strength-reduced k*n+j)
	a.ConstD(0)
	a.StoreD(lS)
	a.LoadI(lJ)
	a.StoreI(lKb)
	a.ConstI(0)
	a.StoreI(lK)
	// The dot loop is unrolled 4x (n = 16*scale is always divisible):
	// loop control is the expensive part on a branch-hostile vector
	// core, so cutting the back edges is what the kernel's own compiler
	// would do. The float64 operation order is untouched, keeping
	// refMatmul exact.
	dotLoop, dotDone := a.NewLabel(), a.NewLabel()
	a.Bind(dotLoop)
	a.LoadI(lK)
	a.LoadI(lN)
	a.IfICmpGE(dotDone)
	for unroll := 0; unroll < 4; unroll++ {
		// s += a[ibase+k] * b[kb]
		a.LoadD(lS)
		a.LoadRef(lA)
		a.LoadI(lIb)
		a.LoadI(lK)
		a.AddI()
		a.ALoad(classfile.ElemDouble)
		a.LoadRef(lB)
		a.LoadI(lKb)
		a.ALoad(classfile.ElemDouble)
		a.MulD()
		a.AddD()
		a.StoreD(lS)
		// kb += n
		a.LoadI(lKb)
		a.LoadI(lN)
		a.AddI()
		a.StoreI(lKb)
		a.Inc(lK, 1)
	}
	a.Goto(dotLoop)
	a.Bind(dotDone)
	// chk += (int)(s * 16.0)
	a.LoadI(lChk)
	a.LoadD(lS)
	a.ConstD(16.0)
	a.MulD()
	a.D2I()
	a.AddI()
	a.StoreI(lChk)
	a.Inc(lJ, 1)
	a.Goto(colLoop)
	a.Bind(colDone)

	a.Inc(lI, 1)
	a.Goto(rowLoop)
	a.Bind(rowDone)

	a.LoadI(lChk)
	a.InvokeStatic(h.add)
	a.RetVoid()
	a.MustBuild()

	// Setup: fill A and B, construct the body.
	// Entry locals: 0=body 1=idx 2=a 3=b
	h.buildEntries(n, func(a *classfile.Asm) {
		a.ConstI(n * n)
		a.NewArray(classfile.ElemDouble)
		a.StoreRef(2)
		emitFillLinear(a, 2, 1, n*n, 7, 3, 31, 15, 0.125)
		a.ConstI(n * n)
		a.NewArray(classfile.ElemDouble)
		a.StoreRef(3)
		emitFillLinear(a, 3, 1, n*n, 5, 11, 29, 14, 0.0625)
		a.New(h.body)
		a.StoreRef(0)
		a.LoadRef(0)
		a.LoadRef(2)
		a.PutField(aF)
		a.LoadRef(0)
		a.LoadRef(3)
		a.PutField(bF)
		a.LoadRef(0)
		a.ConstI(n)
		a.PutField(nF)
	})
}

// refMatmul mirrors the bytecode exactly in Go (same float64 operation
// order, so the checksum matches bit for bit).
func refMatmul(_, scale int) int32 {
	n := matmulN(scale)
	am := fillLinear(n*n, 7, 3, 31, 15, 0.125)
	bm := fillLinear(n*n, 5, 11, 29, 14, 0.0625)
	var chk int32
	for i := int32(0); i < n; i++ {
		ibase := i * n
		for j := int32(0); j < n; j++ {
			s := 0.0
			kb := j
			for k := int32(0); k < n; k++ {
				s += float64(am[ibase+k] * bm[kb])
				kb += n
			}
			chk += int32(s * 16.0)
		}
	}
	return chk
}
