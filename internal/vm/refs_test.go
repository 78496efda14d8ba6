package vm

import (
	"context"
	"testing"

	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// sitesMark is what the planted objects carry in Counter.v, so a test
// can recognise them in an image and on the target.
const sitesMark = 4242

// sitesWorld is Snap parked at a safe point around cycle 75 000 with
// the world stopped, ready for a test to plant a reference: main
// (thread 0) holds the counter and the two workers in locals 0-2 and an
// int on its operand stack, each worker holds the counter on its; the
// program also declares Sub extends Base, each with one reference field
// (Base.keep is Sub's inherited one).
type sitesWorld struct {
	*VM
	job        *Job
	main, work *Frame // main's frame, worker 1's frame
	vSlot      int    // Counter.v
}

func sitesProg() *classfile.Program {
	p := buildSnapProg()
	base := p.NewClass("Base", nil)
	base.NewField("keep", classfile.Ref)
	p.NewClass("Sub", base).NewField("own", classfile.Ref)
	return p
}

func newSitesWorld(t *testing.T) *sitesWorld {
	t.Helper()
	v, err := New(testConfig(), sitesProg())
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := v.Submit(JobSpec{Name: "snap", Class: "Snap", Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.RunUntil(75_000); err != nil {
		t.Fatal(err)
	}
	// Freeze's drive to the safe point, stopped short of the capture.
	j.freezeBarrier = true
	for !v.jobFreezable(j) {
		steps := 0
		if err := v.runWhile(func() bool { steps++; return steps > 1 || j.done }); err != nil || j.done {
			t.Fatalf("driving to the safe point: done=%v err=%v", j.done, err)
		}
	}
	j.freezeBarrier = false
	v.quiesce(edgeWorldStop)

	w := &sitesWorld{VM: v, job: j, main: j.threads[0].top(), work: j.threads[1].top(),
		vSlot: v.Prog.Lookup("Counter").FieldByName("v").Slot}
	ms, ml := w.main.kinds()
	ws, _ := w.work.kinds()
	if len(j.threads) != 3 || ml[0] != classfile.Ref || ml[2] != classfile.Ref || ml[3] != classfile.Int ||
		len(ms) != 1 || ms[0] != classfile.Int || len(ws) != 1 || ws[0] != classfile.Ref {
		t.Fatalf("Snap is not parked in the shape the rows plant into: main %+v worker %+v", w.main, w.work)
	}
	return w
}

// sharedStatic is Snap.shared, the reference static.
func sharedStatic(v *VM) *classfile.Field {
	fd := v.Prog.Lookup("Snap").Statics[1]
	if fd.Name != "shared" {
		panic("Snap's statics moved")
	}
	return fd
}

// fresh allocates a marked Counter nothing refers to yet.
func (w *sitesWorld) fresh(t *testing.T) Ref {
	t.Helper()
	r, err := w.allocObject(w.Prog.Lookup("Counter"))
	if err != nil {
		t.Fatal(err)
	}
	w.Heap.SetFieldSlot(r, w.vSlot, sitesMark)
	return r
}

// marked reports whether a target-side value is a planted object.
func marked(v *VM, r uint64, vSlot int) bool {
	return v.Heap.Contains(Ref(r)) && v.classOf(Ref(r)) == v.Prog.Lookup("Counter") &&
		v.Heap.FieldSlot(Ref(r), vSlot) == sitesMark
}

// TestEveryReferenceSiteIsWalked has one row per place refs.go says a
// reference can live. Each plants the only reference to a fresh object
// there and checks what applies to the site: the object survives a
// collection; the freeze's capture lists it exactly once; and after
// encode → decode → rehydrate the same site on the target holds a
// planted object. The never rows are the complement: a value that looks
// like a heap address where no reference lives roots nothing. Each row
// fails with its site deleted from refs.go.
func TestEveryReferenceSiteIsWalked(t *testing.T) {
	snapStatic := func(v *VM) uint32 { return v.staticAddr(sharedStatic(v)) }
	rows := []struct {
		name  string
		plant func(w *sitesWorld, r Ref)
		// at reads the site back on the target; nil for a site a freeze
		// never carries (the job would not be at a safe point).
		at func(v *VM, j *Job) uint64
		// never marks a plant that must root nothing.
		never bool
	}{
		{name: "thread object",
			plant: func(w *sitesWorld, r Ref) { w.job.threads[0].JavaObj = r },
			at:    func(v *VM, j *Job) uint64 { return uint64(j.threads[0].JavaObj) }},
		{name: "in-flight throw",
			plant: func(w *sitesWorld, r Ref) {
				w.job.threads[0].pendingThrow = r
			}},
		{name: "suspended native argument",
			plant: func(w *sitesWorld, r Ref) {
				w.job.threads[0].pendingNative = &pendingNativeCall{
					ctx:    &NativeCtx{Args: []uint64{7, uint64(r)}},
					callee: &classfile.Method{Flags: classfile.FlagStatic, Params: []classfile.TypeKind{classfile.Int, classfile.Ref}}}
			}},
		{name: "suspended native receiver",
			plant: func(w *sitesWorld, r Ref) {
				w.job.threads[0].pendingNative = &pendingNativeCall{
					ctx:    &NativeCtx{Args: []uint64{uint64(r), 7}},
					callee: &classfile.Method{Params: []classfile.TypeKind{classfile.Int}}}
			}},
		{name: "suspended native int argument", never: true,
			plant: func(w *sitesWorld, r Ref) {
				w.job.threads[0].pendingNative = &pendingNativeCall{
					ctx:    &NativeCtx{Args: []uint64{uint64(r)}},
					callee: &classfile.Method{Flags: classfile.FlagStatic, Params: []classfile.TypeKind{classfile.Int}}}
			}},
		{name: "typed Ref local",
			plant: func(w *sitesWorld, r Ref) { w.main.Locals[0] = uint64(r) },
			at:    func(v *VM, j *Job) uint64 { return j.threads[0].top().Locals[0] }},
		{name: "int local", never: true,
			plant: func(w *sitesWorld, r Ref) { w.main.Locals[3] = uint64(r) }},
		{name: "typed Ref stack slot below SP",
			plant: func(w *sitesWorld, r Ref) { w.work.Stack[0] = uint64(r) },
			at:    func(v *VM, j *Job) uint64 { return j.threads[1].top().Stack[0] }},
		{name: "typed Int stack slot", never: true,
			plant: func(w *sitesWorld, r Ref) { w.main.Stack[0] = uint64(r) }},
		{name: "typed Ref stack slot at SP", never: true, // what a pop leaves behind: a reference, above SP
			plant: func(w *sitesWorld, r Ref) { w.work.Stack[w.work.SP] = uint64(r) }},
		{name: "synchronized-method monitor",
			plant: func(w *sitesWorld, r Ref) { w.main.SyncObj = r },
			at:    func(v *VM, j *Job) uint64 { return uint64(j.threads[0].top().SyncObj) }},
		{name: "inherited reference field",
			plant: func(w *sitesWorld, r Ref) {
				sub, err := w.allocObject(w.Prog.Lookup("Sub"))
				if err != nil {
					panic(err)
				}
				w.Heap.SetFieldSlot(sub, w.Prog.Lookup("Base").FieldByName("keep").Slot, uint64(r))
				w.main.Locals[2] = uint64(sub)
			},
			at: func(v *VM, j *Job) uint64 {
				return v.Heap.FieldSlot(Ref(j.threads[0].top().Locals[2]), v.Prog.Lookup("Base").FieldByName("keep").Slot)
			}},
		{name: "reference-array element",
			plant: func(w *sitesWorld, r Ref) {
				arr, err := w.allocArray(isa.ElemRef, 3)
				if err != nil {
					panic(err)
				}
				w.Machine.Mem.Write32(arr+isa.HeaderBytes+2*4, r)
				w.main.Locals[2] = uint64(arr)
			},
			at: func(v *VM, j *Job) uint64 {
				return uint64(v.Machine.Mem.Read32(Ref(j.threads[0].top().Locals[2]) + isa.HeaderBytes + 2*4))
			}},
		{name: "reference static",
			plant: func(w *sitesWorld, r Ref) { w.Machine.Mem.Write64(snapStatic(w.VM), uint64(r)) },
			at:    func(v *VM, j *Job) uint64 { return v.Machine.Mem.Read64(snapStatic(v)) }},
		{name: "class-lock object", // idle: collected around, but not carried
			plant: func(w *sitesWorld, r Ref) { w.classes[w.Prog.Lookup("Snap").ID].lockObj = r }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			w := newSitesWorld(t)
			obj := w.fresh(t)
			row.plant(w, obj)

			w.gc()
			if w.Heap.Contains(obj) == row.never {
				t.Fatalf("after a collection: object live = %v", !row.never)
			}
			if row.at == nil && !row.never {
				return
			}

			img, _, err := w.captureJob(w.job)
			if err != nil {
				t.Fatal(err)
			}
			listed := 0
			for _, o := range img.Objects {
				if o.Class == "Counter" && o.Slots[w.vSlot] == sitesMark {
					listed++
				}
			}
			want := 1
			if row.never {
				want = 0
			}
			if listed != want {
				t.Fatalf("capture lists the object %d times, want %d", listed, want)
			}
			if row.never {
				return
			}

			img, err = DecodeJobImage(EncodeJobImage(img))
			if err != nil {
				t.Fatal(err)
			}
			dst, err := New(testConfig(), sitesProg())
			if err != nil {
				t.Fatal(err)
			}
			dj, err := dst.Rehydrate(img, 0, JobSpec{})
			if err != nil {
				t.Fatal(err)
			}
			if got := row.at(dst, dj); !marked(dst, got, w.vSlot) {
				t.Errorf("the site on the target holds %#x, not a planted object", got)
			}
		})
	}
}

// TestRoutesToOneObjectStayOne: Snap's counter is reachable through a
// local, a reference static, an instance field of each worker and a
// worker's operand stack. After a hand-off every route still reaches
// one object — and a class lock a frame holds travels with the job and
// is the lock the target's static synchronized methods will take.
func TestRoutesToOneObjectStayOne(t *testing.T) {
	w := newSitesWorld(t)
	lock := w.fresh(t)
	snap := w.Prog.Lookup("Snap")
	w.classes[snap.ID].lockObj, w.main.SyncObj = lock, lock

	img, _, err := w.captureJob(w.job)
	if err != nil {
		t.Fatal(err)
	}
	if img, err = DecodeJobImage(EncodeJobImage(img)); err != nil {
		t.Fatal(err)
	}
	dst, err := New(testConfig(), sitesProg())
	if err != nil {
		t.Fatal(err)
	}
	dj, err := dst.Rehydrate(img, 0, JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	mainF := dj.threads[0].top()
	counter := mainF.Locals[0]
	cSlot := dst.Prog.Lookup("Worker").FieldByName("c").Slot
	routes := map[string]uint64{
		"static Snap.shared": dst.Machine.Mem.Read64(dst.staticAddr(sharedStatic(dst))),
		"worker 1 field c":   dst.Heap.FieldSlot(Ref(mainF.Locals[1]), cSlot),
		"worker 2 field c":   dst.Heap.FieldSlot(Ref(mainF.Locals[2]), cSlot),
		"worker 1 stack":     dj.threads[1].top().Stack[0],
	}
	if !dst.Heap.Contains(Ref(counter)) {
		t.Fatalf("main's local 0 on the target is %#x, not an object", counter)
	}
	for name, got := range routes {
		if got != counter {
			t.Errorf("%s reaches %#x, main's local reaches %#x", name, got, counter)
		}
	}
	if got := dst.classes[snap.ID].lockObj; got == 0 || got != mainF.SyncObj || !marked(dst, uint64(got), w.vSlot) {
		t.Errorf("class lock on the target is %#x, the frame holding it has %#x", got, mainF.SyncObj)
	}
}

// TestTerminatedThreadTravelsWithoutFrames: a trapped thread keeps its
// frames on the source, but they are dead. The capture neither encodes
// them nor discovers what only they reach, and the target admits the
// thread terminated with its trap.
func TestTerminatedThreadTravelsWithoutFrames(t *testing.T) {
	w := newSitesWorld(t)
	obj := w.fresh(t)
	w.work.Stack[0] = uint64(obj) // the object's only route
	w.trap(w.cores[0], w.job.threads[1], &TrapError{Kind: "java/lang/NullPointerException"})

	img, _, err := w.captureJob(w.job)
	if err != nil {
		t.Fatal(err)
	}
	if it := img.Threads[1]; !it.Terminated || it.Trap == nil || len(it.Frames) != 0 {
		t.Errorf("image of the trapped thread: terminated %v, trap %v, %d frames; want terminated, the trap, no frames",
			it.Terminated, it.Trap, len(it.Frames))
	}
	for _, o := range img.Objects {
		if o.Class == "Counter" && o.Slots[w.vSlot] == sitesMark {
			t.Error("the capture carries an object only the trapped thread's dead frame reaches")
		}
	}
	if img, err = DecodeJobImage(EncodeJobImage(img)); err != nil {
		t.Fatal(err)
	}
	dst, err := New(testConfig(), sitesProg())
	if err != nil {
		t.Fatal(err)
	}
	dj, err := dst.Rehydrate(img, 0, JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if th := dj.threads[1]; th.State != StateTerminated || th.Trap == nil || len(th.Frames) != 0 {
		t.Errorf("the trapped thread on the target: state %v, trap %v, %d frames", th.State, th.Trap, len(th.Frames))
	}
}

// retValue is what Ret.make boxes and the worker reads back.
const retValue = 41

// buildReturnProg: main starts a worker, joins it and returns
// Ret.result. The worker's run, annotated RunOnSPE, calls Ret.make,
// annotated RunOnPPE, which allocates a Box holding retValue and returns
// it; run stores the box's value in Ret.result. Nothing but make's
// return refers to the box.
func buildReturnProg() *classfile.Program {
	p := newProg()
	threadCls := p.Lookup("java/lang/Thread")
	box := p.NewClass("Box", nil)
	v := box.NewField("v", classfile.Int)
	ret := p.NewClass("Ret", nil)
	result := ret.NewStaticField("result", classfile.Int)
	mk := ret.NewMethod("make", classfile.FlagStatic, classfile.Ref, classfile.Int).
		Annotate(classfile.AnnRunOnPPE)
	{
		a := mk.Asm()
		a.New(box)
		a.Dup()
		a.LoadI(0)
		a.PutField(v)
		a.Ret()
		a.MustBuild()
	}
	worker := p.NewClass("Returner", threadCls)
	{
		a := worker.NewMethod("run", 0, classfile.Void).Annotate(classfile.AnnRunOnSPE).Asm()
		a.ConstI(retValue)
		a.InvokeStatic(mk)
		a.GetField(v)
		a.PutStatic(result)
		a.RetVoid()
		a.MustBuild()
	}
	a := ret.NewMethod("main", classfile.FlagStatic, classfile.Int).Asm()
	a.New(worker)
	a.Dup()
	a.StoreRef(0)
	a.InvokeVirtual(threadCls.MethodByName("start"))
	a.LoadRef(0)
	a.InvokeVirtual(threadCls.MethodByName("join"))
	a.GetStatic(result)
	a.Ret()
	a.MustBuild()
	return p
}

// onReturnTrip runs Ret.main until the worker is queued on its way back
// from the PPE: make has returned, so run is its one frame, with the box
// make returned on top of its operand stack, and it has migrated twice —
// into make and back out.
func onReturnTrip(t *testing.T) (*VM, *Job, Ref) {
	t.Helper()
	v, err := New(testConfig(), buildReturnProg())
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := v.Submit(JobSpec{Name: "ret", Class: "Ret", Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	var w *Thread
	err = v.runWhile(func() bool {
		if len(j.threads) < 2 {
			return j.done
		}
		w = j.threads[1]
		n := len(w.Frames)
		return j.done || w.State == StateReady && n == 1 && w.Migrations == 2 && w.Frames[0].SP == 1
	})
	if err != nil || j.done {
		t.Fatalf("the worker never queued on its return trip: done=%v err=%v", j.done, err)
	}
	box := Ref(w.Frames[0].Stack[0])
	if v.classOf(box) != v.Prog.Lookup("Box") || w.Kind != isa.SPE {
		t.Fatalf("the worker's caller frame holds %#x, not a Box (worker on %v)", box, w.Kind)
	}
	return v, j, box
}

// TestReturnAcrossMigrationIsAFrameSlot: an object a RunOnPPE callee
// returns to its SPE caller is reachable only through the return while
// the thread is on its way back. It is an ordinary slot of the caller's
// frame there, so a collection keeps it and a hand-off carries it.
func TestReturnAcrossMigrationIsAFrameSlot(t *testing.T) {
	t.Run("collection", func(t *testing.T) {
		v, j, box := onReturnTrip(t)
		v.gc()
		if !v.Heap.Contains(box) || v.Heap.FieldSlot(box, 0) != retValue {
			t.Fatalf("a collection on the return trip freed the returned box %#x", box)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		if got := int32(uint32(j.Root().Result)); got != retValue {
			t.Errorf("result after the collection = %d, want %d", got, retValue)
		}
	})
	t.Run("hand-off", func(t *testing.T) {
		v, j, _ := onReturnTrip(t)
		img, err := v.Freeze(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		fs := img.Threads[1].Frames
		if len(fs) != 1 || fs[0].Kind != isa.SPE.String() || len(fs[0].Stack) != 1 ||
			fs[0].Stack[0] == 0 || img.Objects[fs[0].Stack[0]-1].Class != "Box" {
			t.Fatalf("the worker is not frozen on its return trip with the box in run's frame: %+v", fs)
		}
		if img, err = DecodeJobImage(EncodeJobImage(img)); err != nil {
			t.Fatal(err)
		}
		dst, err := New(testConfig(), buildReturnProg())
		if err != nil {
			t.Fatal(err)
		}
		dj, err := dst.Rehydrate(img, 0, JobSpec{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dj.Wait(); err != nil {
			t.Fatal(err)
		}
		if got := int32(uint32(dj.Root().Result)); got != retValue {
			t.Errorf("result through the hand-off = %d, want %d", got, retValue)
		}
	})
}
