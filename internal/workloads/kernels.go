package workloads

import (
	"herajvm/internal/classfile"
)

// Kernels returns the data-parallel showcase workloads (the TornadoVM
// demo set: matrix multiply, NBody, KMeans). Each is built around one
// shared hera/Kernel body with two entries: MainClass fans the
// iteration space out through hera/Parallel.forRange, and ScalarClass
// calls body.run(0, n) sequentially on the calling thread. Both read the
// same deterministically-filled inputs and fold per-iteration terms into
// one synchronized wrapping-int accumulator, so the checksum is
// invariant under any chunk split the launch planner picks — the
// differential tests demand byte-identical totals from the two entries
// and from the pure-Go reference, which mirrors the bytecode's float64
// operation order exactly.
func Kernels() []Spec {
	return []Spec{Matmul(), NBody(), KMeans()}
}

// kernelHarness is the shared scaffolding for one kernel workload copy:
// the synchronized checksum accumulator and the body class (extending
// hera/Kernel) whose run(from, to) the workload fills in.
type kernelHarness struct {
	namespace
	body  *classfile.Class
	run   *classfile.Method
	total *classfile.Field
	add   *classfile.Method
}

// newKernelHarness creates the accumulator and body classes. The body's
// run(from, to) must follow the hera/Kernel determinism contract: read
// the body's input arrays, write only worker-private state, and publish
// results through the commutative accumulator — never through shared
// array stores, whose dirty write-back blocks could collide across
// workers.
func newKernelHarness(ns namespace, bodyName string) *kernelHarness {
	kern := ns.p.Lookup("hera/Kernel")
	total, add := ns.accumulator(bodyName + "Acc")
	body := ns.class(bodyName, kern)
	h := &kernelHarness{namespace: ns, body: body, total: total, add: add}
	h.run = body.NewMethod("run", 0, classfile.Void, classfile.Int, classfile.Int)
	return h
}

// buildEntries emits the two entry classes around the shared body. Both
// run emitSetup — which must leave the constructed body object in local
// 0 and may use locals 1+ as scratch — then either launch the kernel or
// call run(0, n) inline, and return the accumulated total. A copy whose
// MainClass is its ScalarClass holds the sequential entry only.
func (h *kernelHarness) buildEntries(n int32, emitSetup func(a *classfile.Asm)) {
	parallel := h.p.Lookup("hera/Parallel")
	build := func(name string, kernel bool) {
		cls := h.class(name, nil)
		m := cls.NewMethod("main", classfile.FlagStatic, classfile.Int)
		a := m.Asm()
		emitSetup(a)
		if kernel {
			a.ConstI(0)
			a.ConstI(n)
			a.LoadRef(0)
			a.InvokeStatic(parallel.MethodByName("forRange"))
		} else {
			a.LoadRef(0)
			a.ConstI(0)
			a.ConstI(n)
			a.InvokeVirtual(h.run)
		}
		a.GetStatic(h.total)
		a.Ret()
		a.MustBuild()
	}
	if h.main != h.scalar {
		build(h.main, true)
	}
	build(h.scalar, false)
}

// emitFillLinear emits a fill loop over the double array in local la:
//
//	for (i = 0; i < n; i++) arr[i] = (double)((i*mul + add) % mod - bias) * scale;
//
// using local li as the index. The integer seed keeps the fill exactly
// reproducible in the Go reference (fillLinear) with no FP accumulation
// order to mirror.
func emitFillLinear(a *classfile.Asm, la, li int, n, mul, add, mod, bias int32, scale float64) {
	loop, done := a.NewLabel(), a.NewLabel()
	a.ConstI(0)
	a.StoreI(li)
	a.Bind(loop)
	a.LoadI(li)
	a.ConstI(n)
	a.IfICmpGE(done)
	a.LoadRef(la)
	a.LoadI(li)
	a.LoadI(li)
	a.ConstI(mul)
	a.MulI()
	a.ConstI(add)
	a.AddI()
	a.ConstI(mod)
	a.RemI()
	a.ConstI(bias)
	a.SubI()
	a.I2D()
	a.ConstD(scale)
	a.MulD()
	a.AStore(classfile.ElemDouble)
	a.Inc(li, 1)
	a.Goto(loop)
	a.Bind(done)
}

// fillLinear is emitFillLinear's Go mirror (int32 arithmetic, then one
// conversion and one multiply per element — bit-exact by construction).
func fillLinear(n, mul, add, mod, bias int32, scale float64) []float64 {
	v := make([]float64, n)
	for i := int32(0); i < n; i++ {
		v[i] = float64((i*mul+add)%mod-bias) * scale
	}
	return v
}
