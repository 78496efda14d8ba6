package vm

import (
	"context"
	"testing"

	"herajvm/internal/classfile"
)

// buildRecycleProg builds main() { a(); return b(); } where a fills
// three locals with references to fresh objects and pushes and pops
// three more, and b — same MaxLocals, same MaxStack — puts ints in some
// of the same slots and leaves the rest alone. Both then spin on local
// 4, long enough that a quantum boundary falls inside the loop.
func buildRecycleProg() *classfile.Program {
	p := newProg()
	c := p.NewClass("Recycle", nil)
	spin := func(a *classfile.Asm, counter int) {
		loop, done := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(counter)
		a.Bind(loop)
		a.LoadI(counter)
		a.ConstI(20000)
		a.IfICmpGE(done)
		a.Inc(counter, 1)
		a.Goto(loop)
		a.Bind(done)
	}
	ma := c.NewMethod("a", classfile.FlagStatic, classfile.Void)
	a := ma.Asm()
	for i := 0; i < 3; i++ {
		a.New(p.Object)
		a.StoreRef(i)
	}
	for i := 0; i < 3; i++ {
		a.New(p.Object)
	}
	a.Pop()
	a.Pop()
	a.Pop()
	spin(a, 4)
	a.RetVoid()
	a.MustBuild()

	mb := c.NewMethod("b", classfile.FlagStatic, classfile.Int)
	a = mb.Asm()
	for i := 0; i < 2; i++ { // local 2 is never stored: only the recycling clears its flag
		a.ConstI(int32(i + 1))
		a.StoreI(i)
	}
	a.ConstI(4)
	a.ConstI(5)
	a.ConstI(6)
	a.AddI()
	a.AddI()
	a.StoreI(3)
	spin(a, 4)
	a.LoadI(0)
	a.Ret()
	a.MustBuild()

	a = c.NewMethod("main", classfile.FlagStatic, classfile.Int).Asm()
	a.InvokeStatic(ma)
	a.InvokeStatic(mb)
	a.Ret()
	a.MustBuild()
	return p
}

// TestFrameRecycleClearsRefs: the frame a() died in is the frame b()
// runs in, and nothing of a's reference map survives the reuse. b's
// int locals are then given the very addresses a's locals held: a
// collection must free those objects (a stale flag would mark them
// through b's ints), and a FreezeJob image must carry b's slots as
// plain values and none of a's objects.
func TestFrameRecycleClearsRefs(t *testing.T) {
	// reach runs the job to the first quantum boundary at which the root
	// thread's top frame is inside the named method's spin loop.
	reach := func(t *testing.T, vm *VM, j *Job, method string) *Frame {
		t.Helper()
		in := func() bool {
			f := j.root.top()
			return f.CM != nil && f.CM.M.Name == method && f.Locals[4] > 0
		}
		if err := vm.runWhile(func() bool { return j.done || in() }); err != nil {
			t.Fatal(err)
		}
		if j.done {
			t.Fatalf("the job finished without a quantum boundary inside %s", method)
		}
		return j.root.top()
	}
	// inB boots the program and runs it into b(), returning b's frame
	// with a's stale addresses planted in its int locals.
	inB := func(t *testing.T) (*VM, *Job, *Frame, []Ref) {
		t.Helper()
		vm, err := New(testConfig(), buildRecycleProg())
		if err != nil {
			t.Fatal(err)
		}
		j, err := vm.SubmitJob(JobSpec{Name: "recycle", Class: "Recycle", Method: "main"})
		if err != nil {
			t.Fatal(err)
		}
		fa := reach(t, vm, j, "a")
		// The loop's compare reuses stack slots 0 and 1; slot 2 keeps the
		// popped reference and its flag above SP.
		if !fa.StackRefs[2] || fa.SP > 2 {
			t.Fatalf("a(): the test expects a popped, still flagged reference in stack slot 2 (flags %v, SP %d)", fa.StackRefs, fa.SP)
		}
		stale := []Ref{Ref(fa.Stack[2])}
		for i := 0; i < 3; i++ {
			if !fa.LocalRefs[i] {
				t.Fatalf("a(): the test expects a reference in local %d (flags %v)", i, fa.LocalRefs)
			}
			stale = append(stale, Ref(fa.Locals[i]))
		}
		for _, r := range stale {
			if !vm.Heap.Contains(r) {
				t.Fatalf("a(): %#x is not a live object", r)
			}
		}
		fb := reach(t, vm, j, "b")
		if fb != fa || &fb.Locals[0] != &fb.vals[0] || len(fb.Locals) != len(fa.Locals) {
			t.Fatal("b() does not run in a()'s recycled frame; the test exercises nothing")
		}
		for i, r := range fb.refs {
			if r {
				t.Errorf("recycled frame: reference flag %d survived from the previous activation", i)
			}
		}
		for i := 0; i < 3; i++ {
			fb.Locals[i] = uint64(stale[i]) // an int that is a heap address
		}
		return vm, j, fb, stale
	}

	t.Run("gc", func(t *testing.T) {
		vm, _, _, stale := inB(t)
		vm.gc()
		for _, r := range stale {
			if vm.Heap.Contains(r) {
				t.Errorf("object %#x of the dead activation survived a collection", r)
			}
		}
	})
	t.Run("freeze", func(t *testing.T) {
		vm, j, _, _ := inB(t)
		img, err := vm.FreezeJob(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		if len(img.Objects) != 0 {
			t.Errorf("the image carries %d heap objects; the job reaches none", len(img.Objects))
		}
		for _, th := range img.Threads {
			for _, f := range th.Frames {
				for i, r := range append(append([]bool(nil), f.LocalRefs...), f.StackRefs...) {
					if r {
						t.Errorf("image frame of method %d: slot %d is flagged a reference", f.Method, i)
					}
				}
			}
		}
	})
}
