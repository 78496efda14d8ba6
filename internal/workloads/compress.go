package workloads

import (
	"herajvm/internal/classfile"
)

// Compress parameters: the input is 6*scale segments of 8 KB
// pseudo-text; workers take segments round-robin by worker ID (so the
// checksum and total work are independent of the thread count) and
// compress each with LZW (SPECjvm2008's compress is LZW-based), using a
// 16384-entry open-addressed hash table capped at 12-bit codes, like the
// classic compress(1) dictionary. The hash probes are data-dependent and
// scattered over a 128 KB table working set per worker (the two
// dictionary tables alone exceed the 104 KB data cache), which is what
// gives compress the lowest data-cache hit rate and the steepest
// Figure 6 curve.
const (
	lzwHSize        = 16384
	lzwHMask        = lzwHSize - 1
	lzwMaxCode      = 4096
	lzwSegBytes     = 8192
	lzwSegsPerScale = 6
	lzwDefaultScale = 4
)

// Compress returns the memory-bound workload.
func Compress() Spec {
	return Spec{
		Name:         "compress",
		MainClass:    "CompressMain",
		DefaultScale: lzwDefaultScale,
		Reference:    refCompress,
		build:        buildCompress,
	}
}

func buildCompress(ns namespace, threads, scale int) {
	h := newHarness(ns, "CompressWorker")
	w := h.worker

	// static void fill(byte[] in, int id): deterministic pseudo-text.
	fill := w.NewMethod("fill", classfile.FlagStatic, classfile.Void,
		classfile.Ref, classfile.Int)
	{
		a := fill.Asm()
		// locals: 0=in 1=id 2=seed 3=i 4=v 5=t 6=b
		const lIn, lID, lSeed, lI, lV, lT, lB = 0, 1, 2, 3, 4, 5, 6
		a.LoadI(lID)
		a.ConstI(31)
		a.MulI()
		a.ConstI(7)
		a.AddI()
		a.StoreI(lSeed)
		a.ConstI(0)
		a.StoreI(lI)
		loop, done := a.NewLabel(), a.NewLabel()
		a.Bind(loop)
		a.LoadI(lI)
		a.LoadRef(lIn)
		a.ArrayLen()
		a.IfICmpGE(done)
		// seed = seed*1103515245 + 12345
		a.LoadI(lSeed)
		a.ConstI(1103515245)
		a.MulI()
		a.ConstI(12345)
		a.AddI()
		a.StoreI(lSeed)
		// v = (seed >>> 16) & 0x7fff
		a.LoadI(lSeed)
		a.ConstI(16)
		a.UShrI()
		a.ConstI(0x7fff)
		a.AndI()
		a.StoreI(lV)
		// t = v % 100
		a.LoadI(lV)
		a.ConstI(100)
		a.RemI()
		a.StoreI(lT)
		// b = t < 70 ? 97 + v%16 : 32 + v%64
		elseL, endL := a.NewLabel(), a.NewLabel()
		a.LoadI(lT)
		a.ConstI(70)
		a.IfICmpGE(elseL)
		a.ConstI(97)
		a.LoadI(lV)
		a.ConstI(16)
		a.RemI()
		a.AddI()
		a.StoreI(lB)
		a.Goto(endL)
		a.Bind(elseL)
		a.ConstI(32)
		a.LoadI(lV)
		a.ConstI(64)
		a.RemI()
		a.AddI()
		a.StoreI(lB)
		a.Bind(endL)
		a.LoadRef(lIn)
		a.LoadI(lI)
		a.LoadI(lB)
		a.AStore(classfile.ElemByte)
		a.Inc(lI, 1)
		a.Goto(loop)
		a.Bind(done)
		a.RetVoid()
		a.MustBuild()
	}

	// static int compress(byte[] in, byte[] out, int[] htab, int[] codetab)
	compress := w.NewMethod("compress", classfile.FlagStatic, classfile.Int,
		classfile.Ref, classfile.Ref, classfile.Ref, classfile.Ref)
	{
		a := compress.Asm()
		// locals: 0=in 1=out 2=htab 3=codetab 4=chk 5=nextCode 6=o
		//         7=prefix 8=i 9=ch 10=fcode 11=hx 12=hv 13=n
		const (
			lIn, lOut, lHtab, lCodetab   = 0, 1, 2, 3
			lChk, lNext, lO, lPrefix, lI = 4, 5, 6, 7, 8
			lCh, lFcode, lHx, lHv, lN    = 9, 10, 11, 12, 13
		)
		// htab[*] = -1
		init, initDone := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(lI)
		a.Bind(init)
		a.LoadI(lI)
		a.ConstI(lzwHSize)
		a.IfICmpGE(initDone)
		a.LoadRef(lHtab)
		a.LoadI(lI)
		a.ConstI(-1)
		a.AStore(classfile.ElemInt)
		a.Inc(lI, 1)
		a.Goto(init)
		a.Bind(initDone)

		a.ConstI(0)
		a.StoreI(lChk)
		a.ConstI(256)
		a.StoreI(lNext)
		a.ConstI(0)
		a.StoreI(lO)
		a.LoadRef(lIn)
		a.ArrayLen()
		a.StoreI(lN)
		// prefix = in[0] & 0xff
		a.LoadRef(lIn)
		a.ConstI(0)
		a.ALoad(classfile.ElemByte)
		a.ConstI(0xff)
		a.AndI()
		a.StoreI(lPrefix)
		a.ConstI(1)
		a.StoreI(lI)

		outer, outerDone := a.NewLabel(), a.NewLabel()
		probe := a.NewLabel()
		insert := a.NewLabel()
		nextIter := a.NewLabel()
		a.Bind(outer)
		a.LoadI(lI)
		a.LoadI(lN)
		a.IfICmpGE(outerDone)
		// ch = in[i] & 0xff
		a.LoadRef(lIn)
		a.LoadI(lI)
		a.ALoad(classfile.ElemByte)
		a.ConstI(0xff)
		a.AndI()
		a.StoreI(lCh)
		// fcode = (ch << 16) + prefix
		a.LoadI(lCh)
		a.ConstI(16)
		a.ShlI()
		a.LoadI(lPrefix)
		a.AddI()
		a.StoreI(lFcode)
		// hx = ((fcode * 0x9E3779B1) >>> 18) & HMASK (Fibonacci hashing:
		// the classic xor-fold hash clusters badly on small alphabets)
		a.LoadI(lFcode)
		a.ConstI(-1640531527)
		a.MulI()
		a.ConstI(18)
		a.UShrI()
		a.ConstI(lzwHMask)
		a.AndI()
		a.StoreI(lHx)

		a.Bind(probe)
		a.LoadRef(lHtab)
		a.LoadI(lHx)
		a.ALoad(classfile.ElemInt)
		a.StoreI(lHv)
		// if (hv == fcode) { prefix = codetab[hx]; i++; continue }
		matchNo := a.NewLabel()
		a.LoadI(lHv)
		a.LoadI(lFcode)
		a.IfICmpNE(matchNo)
		a.LoadRef(lCodetab)
		a.LoadI(lHx)
		a.ALoad(classfile.ElemInt)
		a.StoreI(lPrefix)
		a.Inc(lI, 1)
		a.Goto(outer)
		a.Bind(matchNo)
		// if (hv == -1) goto insert
		a.LoadI(lHv)
		a.ConstI(-1)
		a.IfICmpEQ(insert)
		// hx = (hx + 1) & HMASK; goto probe
		a.LoadI(lHx)
		a.ConstI(1)
		a.AddI()
		a.ConstI(lzwHMask)
		a.AndI()
		a.StoreI(lHx)
		a.Goto(probe)

		a.Bind(insert)
		// out[o] = prefix & 0xff; out[o+1] = (prefix >>> 8); o += 2
		a.LoadRef(lOut)
		a.LoadI(lO)
		a.LoadI(lPrefix)
		a.ConstI(0xff)
		a.AndI()
		a.AStore(classfile.ElemByte)
		a.LoadRef(lOut)
		a.LoadI(lO)
		a.ConstI(1)
		a.AddI()
		a.LoadI(lPrefix)
		a.ConstI(8)
		a.UShrI()
		a.AStore(classfile.ElemByte)
		a.Inc(lO, 2)
		// chk += prefix
		a.LoadI(lChk)
		a.LoadI(lPrefix)
		a.AddI()
		a.StoreI(lChk)
		// if (nextCode < MAXCODE) { htab[hx]=fcode; codetab[hx]=nextCode++; }
		a.LoadI(lNext)
		a.ConstI(lzwMaxCode)
		a.IfICmpGE(nextIter)
		a.LoadRef(lHtab)
		a.LoadI(lHx)
		a.LoadI(lFcode)
		a.AStore(classfile.ElemInt)
		a.LoadRef(lCodetab)
		a.LoadI(lHx)
		a.LoadI(lNext)
		a.AStore(classfile.ElemInt)
		a.Inc(lNext, 1)
		a.Bind(nextIter)
		// prefix = ch; i++
		a.LoadI(lCh)
		a.StoreI(lPrefix)
		a.Inc(lI, 1)
		a.Goto(outer)
		a.Bind(outerDone)

		// final emission
		a.LoadRef(lOut)
		a.LoadI(lO)
		a.LoadI(lPrefix)
		a.ConstI(0xff)
		a.AndI()
		a.AStore(classfile.ElemByte)
		a.LoadRef(lOut)
		a.LoadI(lO)
		a.ConstI(1)
		a.AddI()
		a.LoadI(lPrefix)
		a.ConstI(8)
		a.UShrI()
		a.AStore(classfile.ElemByte)
		a.Inc(lO, 2)
		a.LoadI(lChk)
		a.LoadI(lPrefix)
		a.AddI()
		a.StoreI(lChk)

		// chk += o; then fold every 7th output byte back in (sequential
		// re-read of the compressed stream).
		a.LoadI(lChk)
		a.LoadI(lO)
		a.AddI()
		a.StoreI(lChk)
		foldLoop, foldDone := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(lI)
		a.Bind(foldLoop)
		a.LoadI(lI)
		a.LoadI(lO)
		a.IfICmpGE(foldDone)
		a.LoadI(lChk)
		a.LoadRef(lOut)
		a.LoadI(lI)
		a.ALoad(classfile.ElemByte)
		a.ConstI(0xff)
		a.AndI()
		a.AddI()
		a.StoreI(lChk)
		a.Inc(lI, 7)
		a.Goto(foldLoop)
		a.Bind(foldDone)

		a.LoadI(lChk)
		a.Ret()
		a.MustBuild()
	}

	// run(): allocate buffers once, then compress segments id, id+W, ...
	// publishing the summed checksum.
	{
		a := h.run.Asm()
		// locals: 0=this 1=nsegs 2=in 3=out 4=htab 5=codetab 6=chk 7=s 8=W
		const lNSegs, lIn, lOut, lHtab, lCodetab, lChk, lS, lW = 1, 2, 3, 4, 5, 6, 7, 8
		a.LoadRef(0)
		a.GetField(h.scale)
		a.ConstI(lzwSegsPerScale)
		a.MulI()
		a.StoreI(lNSegs)
		a.LoadRef(0)
		a.GetField(h.workers)
		a.StoreI(lW)
		a.ConstI(lzwSegBytes)
		a.NewArray(classfile.ElemByte)
		a.StoreRef(lIn)
		a.ConstI(2*lzwSegBytes + 8)
		a.NewArray(classfile.ElemByte)
		a.StoreRef(lOut)
		a.ConstI(lzwHSize)
		a.NewArray(classfile.ElemInt)
		a.StoreRef(lHtab)
		a.ConstI(lzwHSize)
		a.NewArray(classfile.ElemInt)
		a.StoreRef(lCodetab)
		a.ConstI(0)
		a.StoreI(lChk)

		loop, done := a.NewLabel(), a.NewLabel()
		a.LoadRef(0)
		a.GetField(h.id)
		a.StoreI(lS)
		a.Bind(loop)
		a.LoadI(lS)
		a.LoadI(lNSegs)
		a.IfICmpGE(done)

		a.LoadRef(lIn)
		a.LoadI(lS)
		a.InvokeStatic(fill)

		a.LoadI(lChk)
		a.LoadRef(lIn)
		a.LoadRef(lOut)
		a.LoadRef(lHtab)
		a.LoadRef(lCodetab)
		a.InvokeStatic(compress)
		a.AddI()
		a.StoreI(lChk)

		a.LoadI(lS)
		a.LoadI(lW)
		a.AddI()
		a.StoreI(lS)
		a.Goto(loop)
		a.Bind(done)

		a.LoadI(lChk)
		a.InvokeStatic(h.add)
		a.RetVoid()
		a.MustBuild()
	}

	h.buildMain(threads, scale, nil)
}

// refCompress mirrors the bytecode exactly in Go (Java int32 wrapping
// semantics throughout). The checksum is independent of the thread
// count: segments are compressed independently whatever worker runs
// them.
func refCompress(threads, scale int) int32 {
	var total int32
	for s := 0; s < lzwSegsPerScale*scale; s++ {
		in := refFill(lzwSegBytes, int32(s))
		total += refLZW(in)
	}
	return total
}

func refFill(n int, id int32) []byte {
	in := make([]byte, n)
	seed := id*31 + 7
	for i := range in {
		seed = seed*1103515245 + 12345
		v := int32(uint32(seed)>>16) & 0x7fff
		t := v % 100
		var b int32
		if t < 70 {
			b = 97 + v%16
		} else {
			b = 32 + v%64
		}
		in[i] = byte(b)
	}
	return in
}

func refLZW(in []byte) int32 {
	htab := make([]int32, lzwHSize)
	codetab := make([]int32, lzwHSize)
	for i := range htab {
		htab[i] = -1
	}
	out := make([]byte, 2*len(in)+8)
	var chk, nextCode, o int32
	nextCode = 256
	prefix := int32(in[0]) & 0xff
	emit := func() {
		out[o] = byte(prefix & 0xff)
		out[o+1] = byte(uint32(prefix) >> 8)
		o += 2
		chk += prefix
	}
	for i := 1; i < len(in); i++ {
		ch := int32(in[i]) & 0xff
		fcode := ch<<16 + prefix
		hx := int32(uint32(fcode*-1640531527)>>18) & lzwHMask
		for {
			hv := htab[hx]
			if hv == fcode {
				prefix = codetab[hx]
				goto next
			}
			if hv == -1 {
				break
			}
			hx = (hx + 1) & lzwHMask
		}
		emit()
		if nextCode < lzwMaxCode {
			htab[hx] = fcode
			codetab[hx] = nextCode
			nextCode++
		}
		prefix = ch
	next:
	}
	emit()
	chk += o
	for i := int32(0); i < o; i += 7 {
		chk += int32(out[i]) & 0xff
	}
	return chk
}
