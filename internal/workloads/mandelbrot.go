package workloads

import (
	"herajvm/internal/classfile"
)

// Mandelbrot parameters: a scale of s renders a (32s x 24s) region of
// the classic [-2,1]x[-1.2,1.2] window with up to 48 iterations per
// pixel. The paper's own mandelbrot is 800x600 (scale 25); the
// experiment default keeps simulation time reasonable while preserving
// the workload's character (the checksum and cycle mix are
// scale-independent in shape).
const (
	mandelXMin, mandelXMax = -2.0, 1.0
	mandelYMin, mandelYMax = -1.2, 1.2
	mandelMaxIter          = 48
	mandelDefaultScale     = 5
)

// Mandelbrot returns the floating-point-bound workload: each worker
// renders an interleaved set of rows, summing iteration counts as its
// checksum. The inner loop is almost pure double arithmetic, matching
// the Figure 5 profile that explains mandelbrot's SPE advantage.
func Mandelbrot() Spec {
	return Spec{
		Name:         "mandelbrot",
		MainClass:    "MandelbrotMain",
		DefaultScale: mandelDefaultScale,
		Reference:    refMandelbrot,
		build:        buildMandelbrot,
	}
}

func buildMandelbrot(ns namespace, threads, scale int) {
	h := newHarness(ns, "MandelWorker")
	a := h.run.Asm()

	// Locals: 0=this 1=chk 2=y 3=x 4=cy 5=cx 6=zx 7=zy 8=iter 9=t
	//         10=W 11=width 12=height 13=dx 14=dy 15=rowBuf
	const (
		lChk, lY, lX, lCy, lCx, lZx, lZy, lIter, lT = 1, 2, 3, 4, 5, 6, 7, 8, 9
		lW, lWidth, lHeight, lDx, lDy, lRow         = 10, 11, 12, 13, 14, 15
	)

	a.ConstI(0)
	a.StoreI(lChk)
	a.LoadRef(0)
	a.GetField(h.workers)
	a.StoreI(lW)
	// width = 32*scale; height = 24*scale
	a.LoadRef(0)
	a.GetField(h.scale)
	a.ConstI(32)
	a.MulI()
	a.StoreI(lWidth)
	a.LoadRef(0)
	a.GetField(h.scale)
	a.ConstI(24)
	a.MulI()
	a.StoreI(lHeight)
	// dx = (xmax-xmin)/width; dy = (ymax-ymin)/height
	a.ConstD(mandelXMax - mandelXMin)
	a.LoadI(lWidth)
	a.I2D()
	a.DivD()
	a.StoreD(lDx)
	a.ConstD(mandelYMax - mandelYMin)
	a.LoadI(lHeight)
	a.I2D()
	a.DivD()
	a.StoreD(lDy)
	// rowBuf = new int[width]: each worker renders into its own row
	// buffer (the paper's mandelbrot renders an 800x600 image; a private
	// buffer avoids false sharing between SPE write-back blocks).
	a.LoadI(lWidth)
	a.NewArray(classfile.ElemInt)
	a.StoreRef(lRow)

	// for (y = id; y < height; y += W)
	a.LoadRef(0)
	a.GetField(h.id)
	a.StoreI(lY)
	rowLoop, rowDone := a.NewLabel(), a.NewLabel()
	a.Bind(rowLoop)
	a.LoadI(lY)
	a.LoadI(lHeight)
	a.IfICmpGE(rowDone)
	// cy = ymin + y*dy
	a.ConstD(mandelYMin)
	a.LoadI(lY)
	a.I2D()
	a.LoadD(lDy)
	a.MulD()
	a.AddD()
	a.StoreD(lCy)

	// for (x = 0; x < width; x++)
	a.ConstI(0)
	a.StoreI(lX)
	colLoop, colDone := a.NewLabel(), a.NewLabel()
	a.Bind(colLoop)
	a.LoadI(lX)
	a.LoadI(lWidth)
	a.IfICmpGE(colDone)
	// cx = xmin + x*dx
	a.ConstD(mandelXMin)
	a.LoadI(lX)
	a.I2D()
	a.LoadD(lDx)
	a.MulD()
	a.AddD()
	a.StoreD(lCx)
	// zx = zy = 0; iter = 0
	a.ConstD(0)
	a.StoreD(lZx)
	a.ConstD(0)
	a.StoreD(lZy)
	a.ConstI(0)
	a.StoreI(lIter)

	// while (zx*zx + zy*zy <= 4.0 && iter < maxIter)
	escLoop, escDone := a.NewLabel(), a.NewLabel()
	a.Bind(escLoop)
	a.LoadD(lZx)
	a.LoadD(lZx)
	a.MulD()
	a.LoadD(lZy)
	a.LoadD(lZy)
	a.MulD()
	a.AddD()
	a.ConstD(4.0)
	a.CmpDG()
	a.IfGT(escDone) // |z|^2 > 4
	a.LoadI(lIter)
	a.ConstI(mandelMaxIter)
	a.IfICmpGE(escDone)
	// t = zx*zx - zy*zy + cx
	a.LoadD(lZx)
	a.LoadD(lZx)
	a.MulD()
	a.LoadD(lZy)
	a.LoadD(lZy)
	a.MulD()
	a.SubD()
	a.LoadD(lCx)
	a.AddD()
	a.StoreD(lT)
	// zy = 2*zx*zy + cy
	a.ConstD(2.0)
	a.LoadD(lZx)
	a.MulD()
	a.LoadD(lZy)
	a.MulD()
	a.LoadD(lCy)
	a.AddD()
	a.StoreD(lZy)
	// zx = t
	a.LoadD(lT)
	a.StoreD(lZx)
	a.Inc(lIter, 1)
	a.Goto(escLoop)
	a.Bind(escDone)

	// rowBuf[x] = iter; chk += iter
	a.LoadRef(lRow)
	a.LoadI(lX)
	a.LoadI(lIter)
	a.AStore(classfile.ElemInt)
	a.LoadI(lChk)
	a.LoadI(lIter)
	a.AddI()
	a.StoreI(lChk)
	a.Inc(lX, 1)
	a.Goto(colLoop)
	a.Bind(colDone)

	// y += W
	a.LoadI(lY)
	a.LoadI(lW)
	a.AddI()
	a.StoreI(lY)
	a.Goto(rowLoop)
	a.Bind(rowDone)

	a.LoadI(lChk)
	a.InvokeStatic(h.add)
	a.RetVoid()
	a.MustBuild()

	h.buildMain(threads, scale, nil)
}

// refMandelbrot mirrors the bytecode exactly in Go (same float64
// operation order, so the checksum matches bit for bit).
func refMandelbrot(threads, scale int) int32 {
	width := 32 * scale
	height := 24 * scale
	dx := (mandelXMax - mandelXMin) / float64(width)
	dy := (mandelYMax - mandelYMin) / float64(height)
	var total int32
	for id := 0; id < threads; id++ {
		var chk int32
		for y := id; y < height; y += threads {
			cy := mandelYMin + float64(float64(y)*dy)
			for x := 0; x < width; x++ {
				cx := mandelXMin + float64(float64(x)*dx)
				zx, zy := 0.0, 0.0
				var iter int32
				for float64(zx*zx)+float64(zy*zy) <= 4.0 && iter < mandelMaxIter {
					t := float64(zx*zx) - float64(zy*zy) + cx
					zy = float64(2*zx*zy) + cy
					zx = t
					iter++
				}
				chk += iter
			}
		}
		total += chk
	}
	return total
}
