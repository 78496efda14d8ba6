package workloads

import (
	"herajvm/internal/classfile"
)

// NBody parameters: a scale of s simulates one all-pairs force
// evaluation over 32s bodies in the plane with Plummer softening
// (eps keeps r² away from zero, so no square root is needed). A chunk
// is a band of bodies; every worker reads all positions and masses but
// accumulates only its own bodies' forces — TornadoVM's NBody demo
// decomposition.
const (
	nbodyDefaultScale = 4
	nbodySoftening    = 0.5
)

func nbodyCount(scale int) int32 { return int32(32 * scale) }

// NBody returns the all-pairs gravity kernel workload: the
// FP-divide-bound member of the showcase set. Each body contributes
// (int)(ax*4) + (int)(ay*4) to the checksum — per-iteration terms, so
// the total is invariant under any body split.
func NBody() Spec {
	return Spec{
		Name:         "nbody",
		MainClass:    "NBodyKernel",
		ScalarClass:  "NBodyScalar",
		DefaultScale: nbodyDefaultScale,
		Reference:    refNBody,
		build:        buildNBody,
	}
}

func buildNBody(ns namespace, _, scale int) {
	n := nbodyCount(scale)
	h := newKernelHarness(ns, "NBodyBody")
	xF := h.body.NewField("x", classfile.Ref)
	yF := h.body.NewField("y", classfile.Ref)
	mF := h.body.NewField("m", classfile.Ref)
	nF := h.body.NewField("n", classfile.Int)

	// run(from, to): accumulate forces on bodies [from, to).
	// Locals: 0=this 1=from 2=to 3=i 4=j 5=chk 6=ax 7=ay 8=dx 9=dy
	//         10=r2 11=f 12=n 13=x 14=y 15=m 16=xi 17=yi
	const (
		lI, lJ, lChk, lAx, lAy, lDx, lDy  = 3, 4, 5, 6, 7, 8, 9
		lR2, lF, lN, lX, lY, lM, lXi, lYi = 10, 11, 12, 13, 14, 15, 16, 17
	)
	a := h.run.Asm()
	a.ConstI(0)
	a.StoreI(lChk)
	a.LoadRef(0)
	a.GetField(nF)
	a.StoreI(lN)
	a.LoadRef(0)
	a.GetField(xF)
	a.StoreRef(lX)
	a.LoadRef(0)
	a.GetField(yF)
	a.StoreRef(lY)
	a.LoadRef(0)
	a.GetField(mF)
	a.StoreRef(lM)

	a.LoadI(1)
	a.StoreI(lI)
	bodyLoop, bodyDone := a.NewLabel(), a.NewLabel()
	a.Bind(bodyLoop)
	a.LoadI(lI)
	a.LoadI(2)
	a.IfICmpGE(bodyDone)
	// xi = x[i]; yi = y[i]; ax = ay = 0
	a.LoadRef(lX)
	a.LoadI(lI)
	a.ALoad(classfile.ElemDouble)
	a.StoreD(lXi)
	a.LoadRef(lY)
	a.LoadI(lI)
	a.ALoad(classfile.ElemDouble)
	a.StoreD(lYi)
	a.ConstD(0)
	a.StoreD(lAx)
	a.ConstD(0)
	a.StoreD(lAy)

	a.ConstI(0)
	a.StoreI(lJ)
	pairLoop, pairDone := a.NewLabel(), a.NewLabel()
	a.Bind(pairLoop)
	a.LoadI(lJ)
	a.LoadI(lN)
	a.IfICmpGE(pairDone)
	// dx = x[j] - xi; dy = y[j] - yi
	a.LoadRef(lX)
	a.LoadI(lJ)
	a.ALoad(classfile.ElemDouble)
	a.LoadD(lXi)
	a.SubD()
	a.StoreD(lDx)
	a.LoadRef(lY)
	a.LoadI(lJ)
	a.ALoad(classfile.ElemDouble)
	a.LoadD(lYi)
	a.SubD()
	a.StoreD(lDy)
	// r2 = dx*dx + dy*dy + eps
	a.LoadD(lDx)
	a.LoadD(lDx)
	a.MulD()
	a.LoadD(lDy)
	a.LoadD(lDy)
	a.MulD()
	a.AddD()
	a.ConstD(nbodySoftening)
	a.AddD()
	a.StoreD(lR2)
	// f = m[j] / r2
	a.LoadRef(lM)
	a.LoadI(lJ)
	a.ALoad(classfile.ElemDouble)
	a.LoadD(lR2)
	a.DivD()
	a.StoreD(lF)
	// ax += f*dx; ay += f*dy
	a.LoadD(lAx)
	a.LoadD(lF)
	a.LoadD(lDx)
	a.MulD()
	a.AddD()
	a.StoreD(lAx)
	a.LoadD(lAy)
	a.LoadD(lF)
	a.LoadD(lDy)
	a.MulD()
	a.AddD()
	a.StoreD(lAy)
	a.Inc(lJ, 1)
	a.Goto(pairLoop)
	a.Bind(pairDone)

	// chk += (int)(ax*4.0) + (int)(ay*4.0)
	a.LoadI(lChk)
	a.LoadD(lAx)
	a.ConstD(4.0)
	a.MulD()
	a.D2I()
	a.AddI()
	a.LoadD(lAy)
	a.ConstD(4.0)
	a.MulD()
	a.D2I()
	a.AddI()
	a.StoreI(lChk)
	a.Inc(lI, 1)
	a.Goto(bodyLoop)
	a.Bind(bodyDone)

	a.LoadI(lChk)
	a.InvokeStatic(h.add)
	a.RetVoid()
	a.MustBuild()

	// Setup. Entry locals: 0=body 1=idx 2=x 3=y 4=m
	h.buildEntries(n, func(a *classfile.Asm) {
		a.ConstI(n)
		a.NewArray(classfile.ElemDouble)
		a.StoreRef(2)
		emitFillLinear(a, 2, 1, n, 13, 7, 41, 20, 0.25)
		a.ConstI(n)
		a.NewArray(classfile.ElemDouble)
		a.StoreRef(3)
		emitFillLinear(a, 3, 1, n, 17, 3, 37, 18, 0.25)
		a.ConstI(n)
		a.NewArray(classfile.ElemDouble)
		a.StoreRef(4)
		emitFillLinear(a, 4, 1, n, 11, 5, 23, -1, 0.5) // masses: (seed%23)+1 > 0
		a.New(h.body)
		a.StoreRef(0)
		a.LoadRef(0)
		a.LoadRef(2)
		a.PutField(xF)
		a.LoadRef(0)
		a.LoadRef(3)
		a.PutField(yF)
		a.LoadRef(0)
		a.LoadRef(4)
		a.PutField(mF)
		a.LoadRef(0)
		a.ConstI(n)
		a.PutField(nF)
	})
}

// refNBody mirrors the bytecode exactly in Go.
func refNBody(_, scale int) int32 {
	n := nbodyCount(scale)
	x := fillLinear(n, 13, 7, 41, 20, 0.25)
	y := fillLinear(n, 17, 3, 37, 18, 0.25)
	m := fillLinear(n, 11, 5, 23, -1, 0.5)
	var chk int32
	for i := int32(0); i < n; i++ {
		xi, yi := x[i], y[i]
		ax, ay := 0.0, 0.0
		for j := int32(0); j < n; j++ {
			dx := x[j] - xi
			dy := y[j] - yi
			r2 := float64(dx*dx) + float64(dy*dy) + nbodySoftening
			f := m[j] / r2
			ax += float64(f * dx)
			ay += float64(f * dy)
		}
		chk += int32(ax*4.0) + int32(ay*4.0)
	}
	return chk
}
