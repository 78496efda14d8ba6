package workloads

import (
	"herajvm/internal/classfile"
)

// KMeans parameters: a scale of s runs one assignment pass of 128s
// planar points against 8 fixed centroids. A chunk is a band of points;
// every worker reads the whole (tiny) centroid table plus its band of
// points — TornadoVM's KMeans demo decomposition, restricted to the
// data-parallel assignment step (the centroid update is a reduction the
// accumulator models).
const (
	kmeansDefaultScale = 4
	kmeansClusters     = 8
)

func kmeansPoints(scale int) int32 { return int32(128 * scale) }

// KMeans returns the nearest-centroid kernel workload: the
// FP-compare-and-branch member of the showcase set. Each point
// contributes best*7 + (int)(bestDist*16) to the checksum — a
// per-iteration term, so the total is invariant under any point split.
func KMeans() Spec {
	return Spec{
		Name:         "kmeans",
		MainClass:    "KMeansKernel",
		ScalarClass:  "KMeansScalar",
		DefaultScale: kmeansDefaultScale,
		Reference:    refKMeans,
		build:        buildKMeans,
	}
}

func buildKMeans(ns namespace, _, scale int) {
	n := kmeansPoints(scale)
	const k = kmeansClusters
	h := newKernelHarness(ns, "KMeansBody")
	pxF := h.body.NewField("px", classfile.Ref)
	pyF := h.body.NewField("py", classfile.Ref)
	cxF := h.body.NewField("cx", classfile.Ref)
	cyF := h.body.NewField("cy", classfile.Ref)
	kF := h.body.NewField("k", classfile.Int)

	// run(from, to): assign points [from, to) to their nearest centroid.
	// Locals: 0=this 1=from 2=to 3=p 4=c 5=chk 6=best 7=bd 8=dx 9=dy
	//         10=d 11=k 12=px 13=py 14=cx 15=cy 16=x 17=y
	const (
		lP, lC, lChk, lBest, lBd, lDx, lDy = 3, 4, 5, 6, 7, 8, 9
		lD, lK, lPx, lPy, lCx, lCy, lX, lY = 10, 11, 12, 13, 14, 15, 16, 17
	)
	a := h.run.Asm()
	a.ConstI(0)
	a.StoreI(lChk)
	a.LoadRef(0)
	a.GetField(kF)
	a.StoreI(lK)
	a.LoadRef(0)
	a.GetField(pxF)
	a.StoreRef(lPx)
	a.LoadRef(0)
	a.GetField(pyF)
	a.StoreRef(lPy)
	a.LoadRef(0)
	a.GetField(cxF)
	a.StoreRef(lCx)
	a.LoadRef(0)
	a.GetField(cyF)
	a.StoreRef(lCy)

	a.LoadI(1)
	a.StoreI(lP)
	ptLoop, ptDone := a.NewLabel(), a.NewLabel()
	a.Bind(ptLoop)
	a.LoadI(lP)
	a.LoadI(2)
	a.IfICmpGE(ptDone)
	// x = px[p]; y = py[p]; best = 0; bd = big
	a.LoadRef(lPx)
	a.LoadI(lP)
	a.ALoad(classfile.ElemDouble)
	a.StoreD(lX)
	a.LoadRef(lPy)
	a.LoadI(lP)
	a.ALoad(classfile.ElemDouble)
	a.StoreD(lY)
	a.ConstI(0)
	a.StoreI(lBest)
	a.ConstD(1e18)
	a.StoreD(lBd)

	a.ConstI(0)
	a.StoreI(lC)
	cenLoop, cenDone := a.NewLabel(), a.NewLabel()
	a.Bind(cenLoop)
	a.LoadI(lC)
	a.LoadI(lK)
	a.IfICmpGE(cenDone)
	// dx = cx[c]-x; dy = cy[c]-y; d = dx*dx + dy*dy
	a.LoadRef(lCx)
	a.LoadI(lC)
	a.ALoad(classfile.ElemDouble)
	a.LoadD(lX)
	a.SubD()
	a.StoreD(lDx)
	a.LoadRef(lCy)
	a.LoadI(lC)
	a.ALoad(classfile.ElemDouble)
	a.LoadD(lY)
	a.SubD()
	a.StoreD(lDy)
	a.LoadD(lDx)
	a.LoadD(lDx)
	a.MulD()
	a.LoadD(lDy)
	a.LoadD(lDy)
	a.MulD()
	a.AddD()
	a.StoreD(lD)
	// if (d < bd) { bd = d; best = c }
	skip := a.NewLabel()
	a.LoadD(lD)
	a.LoadD(lBd)
	a.CmpDG()
	a.IfGE(skip)
	a.LoadD(lD)
	a.StoreD(lBd)
	a.LoadI(lC)
	a.StoreI(lBest)
	a.Bind(skip)
	a.Inc(lC, 1)
	a.Goto(cenLoop)
	a.Bind(cenDone)

	// chk += best*7 + (int)(bd*16.0)
	a.LoadI(lChk)
	a.LoadI(lBest)
	a.ConstI(7)
	a.MulI()
	a.AddI()
	a.LoadD(lBd)
	a.ConstD(16.0)
	a.MulD()
	a.D2I()
	a.AddI()
	a.StoreI(lChk)
	a.Inc(lP, 1)
	a.Goto(ptLoop)
	a.Bind(ptDone)

	a.LoadI(lChk)
	a.InvokeStatic(h.add)
	a.RetVoid()
	a.MustBuild()

	// Setup. Entry locals: 0=body 1=idx 2=px 3=py 4=cx 5=cy
	h.buildEntries(n, func(a *classfile.Asm) {
		a.ConstI(n)
		a.NewArray(classfile.ElemDouble)
		a.StoreRef(2)
		emitFillLinear(a, 2, 1, n, 29, 1, 53, 26, 0.25)
		a.ConstI(n)
		a.NewArray(classfile.ElemDouble)
		a.StoreRef(3)
		emitFillLinear(a, 3, 1, n, 31, 2, 47, 23, 0.25)
		a.ConstI(k)
		a.NewArray(classfile.ElemDouble)
		a.StoreRef(4)
		emitFillLinear(a, 4, 1, k, 19, 3, 53, 26, 0.25)
		a.ConstI(k)
		a.NewArray(classfile.ElemDouble)
		a.StoreRef(5)
		emitFillLinear(a, 5, 1, k, 23, 5, 47, 23, 0.25)
		a.New(h.body)
		a.StoreRef(0)
		a.LoadRef(0)
		a.LoadRef(2)
		a.PutField(pxF)
		a.LoadRef(0)
		a.LoadRef(3)
		a.PutField(pyF)
		a.LoadRef(0)
		a.LoadRef(4)
		a.PutField(cxF)
		a.LoadRef(0)
		a.LoadRef(5)
		a.PutField(cyF)
		a.LoadRef(0)
		a.ConstI(k)
		a.PutField(kF)
	})
}

// refKMeans mirrors the bytecode exactly in Go.
func refKMeans(_, scale int) int32 {
	n := kmeansPoints(scale)
	const k = kmeansClusters
	px := fillLinear(n, 29, 1, 53, 26, 0.25)
	py := fillLinear(n, 31, 2, 47, 23, 0.25)
	cx := fillLinear(k, 19, 3, 53, 26, 0.25)
	cy := fillLinear(k, 23, 5, 47, 23, 0.25)
	var chk int32
	for p := int32(0); p < n; p++ {
		x, y := px[p], py[p]
		best, bd := int32(0), 1e18
		for c := int32(0); c < k; c++ {
			dx := cx[c] - x
			dy := cy[c] - y
			d := float64(dx*dx) + float64(dy*dy)
			if d < bd {
				bd, best = d, c
			}
		}
		chk += best*7 + int32(bd*16.0)
	}
	return chk
}
