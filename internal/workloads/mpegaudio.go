package workloads

import (
	"fmt"
	"math"

	"herajvm/internal/classfile"
)

// MPEGAudio is a structural proxy for SPECjvm2008's mpegaudio (an MP3
// decoder): per frame it runs bitstream unpacking (integer/LCG), symbol
// decoding (tableswitch), dequantisation (x^(4/3) via Newton cube root),
// antialias butterflies, per-subband IMDCT-style transforms and
// polyphase-synthesis dot products. The transform kernels are unrolled
// per subband into 32+16 distinct generated methods — like a real
// decoder's specialised DSP kernels — giving the program the large code
// footprint that makes mpegaudio the paper's code-cache-bound workload
// (Figure 7).
const (
	mpaGranule        = 576 // 32 subbands x 18 samples
	mpaBands          = 32
	mpaSynthDots      = 16
	mpaFramesPerScale = 6 // total frames = 6*scale, split across workers
	mpaDefaultScale   = 12
)

// MPEGAudio returns the code-footprint-bound workload.
func MPEGAudio() Spec {
	return Spec{
		Name:         "mpegaudio",
		MainClass:    "MpegMain",
		DefaultScale: mpaDefaultScale,
		Build:        buildVia(buildMPEGAudioInto),
		BuildInto:    buildMPEGAudioInto,
		Reference:    refMPEGAudio,
	}
}

func buildMPEGAudioInto(p *classfile.Program, prefix string, threads, scale int) error {
	h := newHarnessIn(p, prefix, "MpegWorker")
	mathCls := p.Lookup("java/lang/Math")
	mCos := mathCls.MethodByName("cos")
	mSin := mathCls.MethodByName("sin")

	// --- Tables: coefficient arrays filled by init() ---
	tables := p.NewClass(prefix+"Tables", nil)
	cosT := tables.NewStaticField("cosT", classfile.Ref)
	win := tables.NewStaticField("win", classfile.Ref)
	cs := tables.NewStaticField("cs", classfile.Ref)
	ca := tables.NewStaticField("ca", classfile.Ref)
	initM := tables.NewMethod("init", classfile.FlagStatic, classfile.Void)
	{
		a := initM.Asm()
		fillCos := func(field *classfile.Field, n int, c float64, call *classfile.Method,
			base, scale float64) {
			// field = new double[n]; for i: field[i] = base + scale*f(c*i)
			a.ConstI(int32(n))
			a.NewArray(classfile.ElemDouble)
			a.PutStatic(field)
			loop, done := a.NewLabel(), a.NewLabel()
			a.ConstI(0)
			a.StoreI(0)
			a.Bind(loop)
			a.LoadI(0)
			a.ConstI(int32(n))
			a.IfICmpGE(done)
			a.GetStatic(field)
			a.LoadI(0)
			a.ConstD(base)
			a.ConstD(scale)
			a.ConstD(c)
			a.LoadI(0)
			a.I2D()
			a.MulD()
			a.InvokeStatic(call)
			a.MulD()
			a.AddD()
			a.AStore(classfile.ElemDouble)
			a.Inc(0, 1)
			a.Goto(loop)
			a.Bind(done)
		}
		fillCos(cosT, 128, math.Pi/36, mCos, 0, 1)
		fillCos(win, 32, math.Pi/32, mCos, 0.5, 0.5)
		// cs[i] = cos(0.1*(i+1)); ca[i] = sin(0.1*(i+1)):
		// expressed as cos/sin(0.1*i + 0.1) via base/scale on the index.
		a.ConstI(8)
		a.NewArray(classfile.ElemDouble)
		a.PutStatic(cs)
		a.ConstI(8)
		a.NewArray(classfile.ElemDouble)
		a.PutStatic(ca)
		loop, done := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(0)
		a.Bind(loop)
		a.LoadI(0)
		a.ConstI(8)
		a.IfICmpGE(done)
		a.GetStatic(cs)
		a.LoadI(0)
		a.ConstD(0.1)
		a.LoadI(0)
		a.ConstI(1)
		a.AddI()
		a.I2D()
		a.MulD()
		a.InvokeStatic(mCos)
		a.AStore(classfile.ElemDouble)
		a.GetStatic(ca)
		a.LoadI(0)
		a.ConstD(0.1)
		a.LoadI(0)
		a.ConstI(1)
		a.AddI()
		a.I2D()
		a.MulD()
		a.InvokeStatic(mSin)
		a.AStore(classfile.ElemDouble)
		a.Inc(0, 1)
		a.Goto(loop)
		a.Bind(done)
		a.RetVoid()
		a.MustBuild()
	}

	// --- Huff.decode(int v): symbol decode via tableswitch ---
	huff := p.NewClass(prefix+"Huff", nil)
	decode := huff.NewMethod("decode", classfile.FlagStatic, classfile.Int, classfile.Int)
	{
		a := decode.Asm()
		targets := a.NewLabels(16)
		def := a.NewLabel()
		a.LoadI(0)
		a.TableSwitch(0, def, targets...)
		for k, l := range targets {
			a.Bind(l)
			a.ConstI(int32((k*7)%13 - 6))
			a.Ret()
		}
		a.Bind(def)
		a.ConstI(-1)
		a.Ret()
		a.MustBuild()
	}

	// --- Deq.pow43(double x): sign(x)*|x|^(4/3) proxy via Newton ---
	deq := p.NewClass(prefix+"Deq", nil)
	pow43 := deq.NewMethod("pow43", classfile.FlagStatic, classfile.Double, classfile.Double)
	{
		a := pow43.Asm()
		// locals: 0=x 1=t 2=g
		pos, join := a.NewLabel(), a.NewLabel()
		a.LoadD(0)
		a.ConstD(0)
		a.CmpDG()
		a.IfGE(pos)
		a.LoadD(0)
		a.NegD()
		a.StoreD(1)
		a.Goto(join)
		a.Bind(pos)
		a.LoadD(0)
		a.StoreD(1)
		a.Bind(join)
		// g = 0.7 + 0.3*t
		a.ConstD(0.7)
		a.ConstD(0.3)
		a.LoadD(1)
		a.MulD()
		a.AddD()
		a.StoreD(2)
		// two Newton steps: g = (2*g + t/(g*g)) / 3
		for step := 0; step < 2; step++ {
			a.ConstD(2.0)
			a.LoadD(2)
			a.MulD()
			a.LoadD(1)
			a.LoadD(2)
			a.LoadD(2)
			a.MulD()
			a.DivD()
			a.AddD()
			a.ConstD(3.0)
			a.DivD()
			a.StoreD(2)
		}
		a.LoadD(0)
		a.LoadD(2)
		a.MulD()
		a.Ret()
		a.MustBuild()
	}

	// --- Band.b0..b31: unrolled per-subband transform kernels. Each is
	// called once per time step (18 times per frame) with a per-step
	// coefficient base, so the whole 32-kernel working set streams
	// through the code cache repeatedly per frame, as a real decoder's
	// per-sample synthesis does. ---
	band := p.NewClass(prefix+"Band", nil)
	bandMethods := make([]*classfile.Method, mpaBands)
	for k := 0; k < mpaBands; k++ {
		m := band.NewMethod(fmt.Sprintf("b%d", k), classfile.FlagStatic, classfile.Double,
			classfile.Ref, classfile.Ref, classfile.Int, classfile.Int)
		a := m.Asm()
		// locals: 0=xr 1=cosT 2=off 3=cBase 4=acc
		a.ConstD(0)
		a.StoreD(4)
		for mi := 0; mi < 12; mi++ {
			a.LoadD(4)
			a.LoadRef(0)
			a.LoadI(2)
			a.ConstI(int32(mi))
			a.AddI()
			a.ALoad(classfile.ElemDouble)
			a.LoadRef(1)
			a.LoadI(3)
			a.ConstI(int32(mi))
			a.AddI()
			a.ALoad(classfile.ElemDouble)
			a.MulD()
			a.AddD()
			a.StoreD(4)
		}
		a.LoadD(4)
		a.Ret()
		a.MustBuild()
		bandMethods[k] = m
	}

	// --- Syn.s0..s15: unrolled polyphase-synthesis dot products ---
	syn := p.NewClass(prefix+"Syn", nil)
	synMethods := make([]*classfile.Method, mpaSynthDots)
	for j := 0; j < mpaSynthDots; j++ {
		m := syn.NewMethod(fmt.Sprintf("s%d", j), classfile.FlagStatic, classfile.Double,
			classfile.Ref, classfile.Ref)
		a := m.Asm()
		// locals: 0=v 1=win 2=acc
		a.ConstD(0)
		a.StoreD(2)
		for k := 0; k < mpaBands; k++ {
			widx := (k + j) % 32
			a.LoadD(2)
			a.LoadRef(0)
			a.ConstI(int32(k))
			a.ALoad(classfile.ElemDouble)
			a.LoadRef(1)
			a.ConstI(int32(widx))
			a.ALoad(classfile.ElemDouble)
			a.MulD()
			a.AddD()
			a.StoreD(2)
		}
		a.LoadD(2)
		a.Ret()
		a.MustBuild()
		synMethods[j] = m
	}

	// --- Decoder.decodeFrame(int id, int f) ---
	decoder := p.NewClass(prefix+"Decoder", nil)
	decodeFrame := decoder.NewMethod("decodeFrame", classfile.FlagStatic, classfile.Int,
		classfile.Int, classfile.Int)
	{
		a := decodeFrame.Asm()
		const (
			lID, lF, lChk, lSeed, lK, lQ, lS  = 0, 1, 2, 3, 4, 5, 6
			lXr, lBand, lSb, lI, lU, lD       = 7, 8, 9, 10, 11, 12
			lIdxU, lIdxD, lX, lJ, lPcm, lBase = 13, 14, 15, 16, 17, 18
		)
		a.ConstI(0)
		a.StoreI(lChk)
		a.ConstI(mpaGranule)
		a.NewArray(classfile.ElemDouble)
		a.StoreRef(lXr)
		a.ConstI(mpaBands)
		a.NewArray(classfile.ElemDouble)
		a.StoreRef(lBand)
		// seed = id*131071 + f*524287 + 9973
		a.LoadI(lID)
		a.ConstI(131071)
		a.MulI()
		a.LoadI(lF)
		a.ConstI(524287)
		a.MulI()
		a.AddI()
		a.ConstI(9973)
		a.AddI()
		a.StoreI(lSeed)

		// unpack + decode + dequantise
		loop1, done1 := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(lK)
		a.Bind(loop1)
		a.LoadI(lK)
		a.ConstI(mpaGranule)
		a.IfICmpGE(done1)
		a.LoadI(lSeed)
		a.ConstI(1664525)
		a.MulI()
		a.ConstI(1013904223)
		a.AddI()
		a.StoreI(lSeed)
		// q = (seed >>> 20) - 2048
		a.LoadI(lSeed)
		a.ConstI(20)
		a.UShrI()
		a.ConstI(2048)
		a.SubI()
		a.StoreI(lQ)
		// s = Huff.decode(q & 15)
		a.LoadI(lQ)
		a.ConstI(15)
		a.AndI()
		a.InvokeStatic(decode)
		a.StoreI(lS)
		// xr[k] = Deq.pow43((double)(q+s) * 0.001)
		a.LoadRef(lXr)
		a.LoadI(lK)
		a.LoadI(lQ)
		a.LoadI(lS)
		a.AddI()
		a.I2D()
		a.ConstD(0.001)
		a.MulD()
		a.InvokeStatic(pow43)
		a.AStore(classfile.ElemDouble)
		a.Inc(lK, 1)
		a.Goto(loop1)
		a.Bind(done1)

		// antialias butterflies between adjacent subbands
		sbLoop, sbDone := a.NewLabel(), a.NewLabel()
		a.ConstI(1)
		a.StoreI(lSb)
		a.Bind(sbLoop)
		a.LoadI(lSb)
		a.ConstI(mpaBands)
		a.IfICmpGE(sbDone)
		iLoop, iDone := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(lI)
		a.Bind(iLoop)
		a.LoadI(lI)
		a.ConstI(8)
		a.IfICmpGE(iDone)
		// idxU = sb*18 - 1 - i; idxD = sb*18 + i
		a.LoadI(lSb)
		a.ConstI(18)
		a.MulI()
		a.StoreI(lBase)
		a.LoadI(lBase)
		a.ConstI(1)
		a.SubI()
		a.LoadI(lI)
		a.SubI()
		a.StoreI(lIdxU)
		a.LoadI(lBase)
		a.LoadI(lI)
		a.AddI()
		a.StoreI(lIdxD)
		a.LoadRef(lXr)
		a.LoadI(lIdxU)
		a.ALoad(classfile.ElemDouble)
		a.StoreD(lU)
		a.LoadRef(lXr)
		a.LoadI(lIdxD)
		a.ALoad(classfile.ElemDouble)
		a.StoreD(lD)
		// xr[idxU] = u*cs[i] - d*ca[i]
		a.LoadRef(lXr)
		a.LoadI(lIdxU)
		a.LoadD(lU)
		a.GetStatic(cs)
		a.LoadI(lI)
		a.ALoad(classfile.ElemDouble)
		a.MulD()
		a.LoadD(lD)
		a.GetStatic(ca)
		a.LoadI(lI)
		a.ALoad(classfile.ElemDouble)
		a.MulD()
		a.SubD()
		a.AStore(classfile.ElemDouble)
		// xr[idxD] = d*cs[i] + u*ca[i]
		a.LoadRef(lXr)
		a.LoadI(lIdxD)
		a.LoadD(lD)
		a.GetStatic(cs)
		a.LoadI(lI)
		a.ALoad(classfile.ElemDouble)
		a.MulD()
		a.LoadD(lU)
		a.GetStatic(ca)
		a.LoadI(lI)
		a.ALoad(classfile.ElemDouble)
		a.MulD()
		a.AddD()
		a.AStore(classfile.ElemDouble)
		a.Inc(lI, 1)
		a.Goto(iLoop)
		a.Bind(iDone)
		a.Inc(lSb, 1)
		a.Goto(sbLoop)
		a.Bind(sbDone)

		// subband transforms, one pass per time step j: every pass calls
		// all 32 kernels with a j-dependent coefficient base and folds one
		// band value into the checksum.
		jLoop, jDone := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(lJ)
		a.Bind(jLoop)
		a.LoadI(lJ)
		a.ConstI(18)
		a.IfICmpGE(jDone)
		for k := 0; k < mpaBands; k++ {
			a.LoadRef(lBand)
			a.ConstI(int32(k))
			a.LoadRef(lXr)
			a.GetStatic(cosT)
			a.ConstI(int32(k * 18))
			// cBase = (j*(2k+1) + k) & 63
			a.LoadI(lJ)
			a.ConstI(int32(2*k + 1))
			a.MulI()
			a.ConstI(int32(k))
			a.AddI()
			a.ConstI(63)
			a.AndI()
			a.InvokeStatic(bandMethods[k])
			a.AStore(classfile.ElemDouble)
		}
		// chk += (int)(band[(5j)&31] * 100) & 0xff
		a.LoadI(lChk)
		a.LoadRef(lBand)
		a.LoadI(lJ)
		a.ConstI(5)
		a.MulI()
		a.ConstI(31)
		a.AndI()
		a.ALoad(classfile.ElemDouble)
		a.ConstD(100.0)
		a.MulD()
		a.D2I()
		a.ConstI(0xff)
		a.AndI()
		a.AddI()
		a.StoreI(lChk)
		a.Inc(lJ, 1)
		a.Goto(jLoop)
		a.Bind(jDone)

		// synthesis: chk += (int)(Syn.sj(band, win) * 1000) & 0xffff
		for j := 0; j < mpaSynthDots; j++ {
			a.LoadI(lChk)
			a.LoadRef(lBand)
			a.GetStatic(win)
			a.InvokeStatic(synMethods[j])
			a.ConstD(1000.0)
			a.MulD()
			a.D2I()
			a.ConstI(0xffff)
			a.AndI()
			a.AddI()
			a.StoreI(lChk)
		}
		_ = lPcm
		_ = lX
		a.LoadI(lChk)
		a.Ret()
		a.MustBuild()
	}

	// --- Worker.run(): decode frames id, id+W, ... of 6*scale total
	// (per-frame checksums are worker-independent, so the total is
	// independent of the thread count) ---
	{
		a := h.run.Asm()
		// locals: 0=this 1=chk 2=f 3=frames 4=W
		a.ConstI(0)
		a.StoreI(1)
		a.LoadRef(0)
		a.GetField(h.scale)
		a.ConstI(mpaFramesPerScale)
		a.MulI()
		a.StoreI(3)
		a.LoadRef(0)
		a.GetField(h.workers)
		a.StoreI(4)
		loop, done := a.NewLabel(), a.NewLabel()
		a.LoadRef(0)
		a.GetField(h.id)
		a.StoreI(2)
		a.Bind(loop)
		a.LoadI(2)
		a.LoadI(3)
		a.IfICmpGE(done)
		a.LoadI(1)
		a.ConstI(0)
		a.LoadI(2)
		a.InvokeStatic(decodeFrame)
		a.AddI()
		a.StoreI(1)
		a.LoadI(2)
		a.LoadI(4)
		a.AddI()
		a.StoreI(2)
		a.Goto(loop)
		a.Bind(done)
		a.LoadI(1)
		a.InvokeStatic(h.add)
		a.RetVoid()
		a.MustBuild()
	}

	h.buildMain(prefix+"MpegMain", threads, scale, initM)
	return nil
}

// --- Go reference, mirroring the bytecode op for op ---

func refMPEGAudio(threads, scale int) int32 {
	cosT := make([]float64, 128)
	for i := range cosT {
		cosT[i] = math.Cos(math.Pi / 36 * float64(i))
	}
	winT := make([]float64, 32)
	for i := range winT {
		winT[i] = 0.5 + 0.5*math.Cos(math.Pi/32*float64(i))
	}
	csT := make([]float64, 8)
	caT := make([]float64, 8)
	for i := range csT {
		csT[i] = math.Cos(0.1 * float64(i+1))
		caT[i] = math.Sin(0.1 * float64(i+1))
	}

	// Frames are decoded with a fixed id argument of 0 (the seed depends
	// only on the frame number), so the checksum is independent of the
	// thread count.
	var total int32
	for f := 0; f < mpaFramesPerScale*scale; f++ {
		total += refDecodeFrame(0, int32(f), cosT, winT, csT, caT)
	}
	return total
}

func refPow43(x float64) float64 {
	t := x
	if x < 0 {
		t = -x
	}
	g := 0.7 + 0.3*t
	g = (2.0*g + t/(g*g)) / 3.0
	g = (2.0*g + t/(g*g)) / 3.0
	return x * g
}

func refHuff(v int32) int32 {
	if v >= 0 && v < 16 {
		return int32((int(v)*7)%13 - 6)
	}
	return -1
}

func refDecodeFrame(id, f int32, cosT, winT, csT, caT []float64) int32 {
	var chk int32
	xr := make([]float64, mpaGranule)
	band := make([]float64, mpaBands)
	seed := id*131071 + f*524287 + 9973
	for k := 0; k < mpaGranule; k++ {
		seed = seed*1664525 + 1013904223
		q := int32(uint32(seed)>>20) - 2048
		s := refHuff(q & 15)
		xr[k] = refPow43(float64(q+s) * 0.001)
	}
	for sb := 1; sb < mpaBands; sb++ {
		for i := 0; i < 8; i++ {
			base := sb * 18
			idxU := base - 1 - i
			idxD := base + i
			u, d := xr[idxU], xr[idxD]
			xr[idxU] = u*csT[i] - d*caT[i]
			xr[idxD] = d*csT[i] + u*caT[i]
		}
	}
	for j := int32(0); j < 18; j++ {
		for k := 0; k < mpaBands; k++ {
			cBase := (j*int32(2*k+1) + int32(k)) & 63
			acc := 0.0
			off := k * 18
			for m := 0; m < 12; m++ {
				acc += xr[off+m] * cosT[int(cBase)+m]
			}
			band[k] = acc
		}
		chk += javaD2I(band[(5*j)&31]*100.0) & 0xff
	}
	for j := 0; j < mpaSynthDots; j++ {
		acc := 0.0
		for k := 0; k < mpaBands; k++ {
			acc += band[k] * winT[(k+j)%32]
		}
		chk += javaD2I(acc*1000.0) & 0xffff
	}
	return chk
}

// javaD2I mirrors the JVM's d2i (NaN -> 0, saturating).
func javaD2I(v float64) int32 {
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
