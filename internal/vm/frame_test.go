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
	for i := 0; i < 2; i++ { // local 2 is never stored: only the recycling clears it
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
// runs in, and nothing of a's survives the reuse. b's int locals — and
// local 2, which b never writes — are then given the very addresses a's
// locals held: a collection must free those objects (the frame's
// reference map is b's type state, not what the slots last held), and a
// Freeze image must carry b's slots as plain values and none of a's
// objects.
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
		j, _, err := vm.Submit(JobSpec{Name: "recycle", Class: "Recycle", Method: "main"})
		if err != nil {
			t.Fatal(err)
		}
		fa := reach(t, vm, j, "a")
		// The loop's compare reuses stack slots 0 and 1; slot 2 keeps the
		// popped reference above SP.
		if fa.SP > 2 {
			t.Fatalf("a(): the test expects a popped reference in stack slot 2 (SP %d)", fa.SP)
		}
		stale := []Ref{Ref(fa.Stack[2])}
		_, kinds := fa.kinds()
		for i := 0; i < 3; i++ {
			if kinds[i] != classfile.Ref {
				t.Fatalf("a(): the test expects a reference in local %d (kinds %v)", i, kinds)
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
		if _, kinds := fb.kinds(); kinds[2] != classfile.Void {
			t.Fatalf("b(): the test expects local 2 unwritten (kinds %v)", kinds)
		}
		if fb.Locals[2] != 0 || fb.Stack[2] != 0 {
			t.Errorf("recycled frame: local 2 = %#x, stack slot 2 = %#x survived from the previous activation", fb.Locals[2], fb.Stack[2])
		}
		for i := 0; i < 3; i++ {
			fb.Locals[i] = uint64(stale[i]) // an int (a dead slot, for local 2) that is a heap address
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
		vm, j, _, stale := inB(t)
		img, err := vm.Freeze(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		if len(img.Objects) != 0 {
			t.Errorf("the image carries %d heap objects; the job reaches none", len(img.Objects))
		}
		// b's int locals go out as they stand — not remapped, which would
		// make them 0 in an image of no objects — and its Void local zero.
		if f := img.Threads[0].Frames[len(img.Threads[0].Frames)-1]; f.Locals[0] != uint64(stale[0]) ||
			f.Locals[1] != uint64(stale[1]) || f.Locals[2] != 0 {
			t.Errorf("image of b(): locals %#x; the int locals 0-1 must go out as %#x, %#x and the dead local 2 zero",
				f.Locals, stale[0], stale[1])
		}
	})
}
