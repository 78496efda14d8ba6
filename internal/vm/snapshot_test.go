package vm

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// Workload scale. Big enough that the job runs for several hundred
// thousand cycles, so the freeze points in the tests land mid-run.
const (
	snapWorkerIters = 2000
	snapMainIters   = 5000
)

// buildSnapProg builds a job with plenty of state to transfer: a shared
// Counter object mutated under its monitor by two spawned Worker
// threads (each adds its loop index i to counter.v), a static
// accumulator, a reference static holding the counter (a second route
// to it), and a main-thread compute loop. main returns
// counter.v*1000 + acc + Snap.total — snapExpected mirrors it.
func buildSnapProg() *classfile.Program {
	p := newProg()
	threadCls := p.Lookup("java/lang/Thread")

	counter := p.NewClass("Counter", nil)
	vField := counter.NewField("v", classfile.Int)

	worker := p.NewClass("Worker", threadCls)
	cField := worker.NewField("c", classfile.Ref)
	nField := worker.NewField("n", classfile.Int)
	{
		a := worker.NewMethod("run", 0, classfile.Void).Asm()
		loop, done := a.NewLabel(), a.NewLabel()
		a.ConstI(1)
		a.StoreI(1)
		a.Bind(loop)
		a.LoadI(1)
		a.LoadRef(0)
		a.GetField(nField)
		a.IfICmpGT(done)
		a.LoadRef(0)
		a.GetField(cField)
		a.Dup()
		a.MonitorEnter()
		a.Dup()
		a.Dup()
		a.GetField(vField)
		a.LoadI(1)
		a.AddI()
		a.PutField(vField)
		a.MonitorExit()
		a.Inc(1, 1)
		a.Goto(loop)
		a.Bind(done)
		a.RetVoid()
		a.MustBuild()
	}

	snap := p.NewClass("Snap", nil)
	total := snap.NewStaticField("total", classfile.Int)
	shared := snap.NewStaticField("shared", classfile.Ref)
	a := snap.NewMethod("main", classfile.FlagStatic, classfile.Int).Asm()
	// locals: 0=counter 1=w1 2=w2 3=i 4=acc
	a.New(counter)
	a.Dup()
	a.PutStatic(shared)
	a.StoreRef(0)
	for slot := 1; slot <= 2; slot++ {
		a.New(worker)
		a.Dup()
		a.LoadRef(0)
		a.PutField(cField)
		a.Dup()
		a.ConstI(snapWorkerIters)
		a.PutField(nField)
		a.Dup()
		a.StoreRef(slot)
		a.InvokeVirtual(threadCls.MethodByName("start"))
	}
	loop, done := a.NewLabel(), a.NewLabel()
	a.ConstI(0)
	a.StoreI(3)
	a.ConstI(0)
	a.StoreI(4)
	a.Bind(loop)
	a.LoadI(3)
	a.ConstI(snapMainIters)
	a.IfICmpGE(done)
	a.LoadI(4)
	a.ConstI(3)
	a.MulI()
	a.LoadI(3)
	a.AddI()
	a.StoreI(4)
	a.GetStatic(total)
	a.LoadI(3)
	a.AddI()
	a.PutStatic(total)
	a.Inc(3, 1)
	a.Goto(loop)
	a.Bind(done)
	a.LoadRef(1)
	a.InvokeVirtual(threadCls.MethodByName("join"))
	a.LoadRef(2)
	a.InvokeVirtual(threadCls.MethodByName("join"))
	a.LoadRef(0)
	a.GetField(vField)
	a.ConstI(1000)
	a.MulI()
	a.LoadI(4)
	a.AddI()
	a.GetStatic(total)
	a.AddI()
	a.Ret()
	a.MustBuild()
	return p
}

// snapExpected mirrors Snap.main in Go (32-bit wrapping arithmetic,
// same as the VM's int ops).
func snapExpected() int32 {
	var acc, tot int32
	for i := int32(0); i < snapMainIters; i++ {
		acc = acc*3 + i
		tot += i
	}
	var cv int32
	for i := int32(1); i <= snapWorkerIters; i++ {
		cv += i
	}
	cv *= 2 // two workers
	return cv*1000 + acc + tot
}

// snapResult runs Snap.main to completion on a fresh machine and
// returns (result, output) — the control every hand-off compares to.
func snapResult(t *testing.T) (int32, string) {
	t.Helper()
	v, err := New(testConfig(), buildSnapProg())
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := v.Submit(JobSpec{Name: "snap", Class: "Snap", Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	return int32(uint32(j.Root().Result)), j.Output()
}

// freezeAt submits Snap.main, drives the source to the given cycle and
// freezes the job there. ErrJobDone (the job beat the freeze) is
// reported via the bool.
func freezeAt(t testing.TB, cycle cell.Clock) (*VM, *Job, *JobImage, bool) {
	t.Helper()
	src, err := New(testConfig(), buildSnapProg())
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := src.Submit(JobSpec{Name: "snap", Class: "Snap", Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	if cycle > 0 {
		if err := src.RunUntil(cycle); err != nil {
			t.Fatal(err)
		}
	}
	// A job already at its safe point is captured as it stands, so each
	// frame's image BC must be the PC the frame had: a bytecode index is
	// the PC, on every kind.
	atSafePoint := src.jobFreezable(j)
	var pcs []int32
	for _, th := range j.threads {
		for _, f := range th.Frames {
			if !f.Marker {
				pcs = append(pcs, int32(f.PC))
			}
		}
	}
	img, err := src.Freeze(context.Background(), j)
	if errors.Is(err, ErrJobDone) {
		return src, j, nil, false
	}
	if err != nil {
		t.Fatalf("freeze at %d: %v", cycle, err)
	}
	if atSafePoint {
		var bcs []int32
		for _, it := range img.Threads {
			for _, fr := range it.Frames {
				if !fr.Marker {
					bcs = append(bcs, fr.BC)
				}
			}
		}
		if !reflect.DeepEqual(bcs, pcs) {
			t.Errorf("freeze at %d: image records PCs %v, the frames were at %v", cycle, bcs, pcs)
		}
	}
	return src, j, img, true
}

// TestFreezeRehydrateMidRun is the hand-off differential: freeze the
// job at a spread of cycles — admission time, mid-compute, deep into
// the spawned threads' synchronized phase — rehydrate each image on an
// identically configured fresh machine, and require the checksum and
// captured output to match the never-frozen run exactly.
func TestFreezeRehydrateMidRun(t *testing.T) {
	wantRes, wantOut := snapResult(t)
	if wantRes != snapExpected() {
		t.Fatalf("control run checksum %d, mirror %d", wantRes, snapExpected())
	}
	froze, midMethod := 0, 0
	for _, cycle := range []cell.Clock{0, 30_000, 80_000, 150_000, 300_000, 600_000} {
		src, srcJob, img, ok := freezeAt(t, cycle)
		if !ok {
			continue // job completed before this freeze point
		}
		froze++
		if !srcJob.Frozen() || srcJob.Done() {
			t.Fatalf("cycle %d: frozen job state: frozen=%v done=%v", cycle, srcJob.Frozen(), srcJob.Done())
		}
		if _, err := srcJob.Wait(); !errors.Is(err, ErrFrozen) {
			t.Fatalf("cycle %d: Wait on frozen job = %v, want ErrFrozen", cycle, err)
		}
		if src.LiveThreads() != 0 {
			t.Fatalf("cycle %d: %d live threads left on the source", cycle, src.LiveThreads())
		}
		if err := src.Drain(); err != nil {
			t.Fatalf("cycle %d: source drain after freeze: %v", cycle, err)
		}

		dst, err := New(testConfig(), buildSnapProg())
		if err != nil {
			t.Fatal(err)
		}
		dj, err := dst.Rehydrate(img, 0, JobSpec{})
		if err != nil {
			t.Fatalf("cycle %d: rehydrate: %v", cycle, err)
		}
		// Every frame lands on the kind its thread was placed on, at the PC
		// the image recorded.
		for ti, th := range dj.threads {
			for fi, f := range th.Frames {
				if f.Marker {
					continue
				}
				if f.CM.Target != th.Kind || int32(f.PC) != img.Threads[ti].Frames[fi].BC {
					t.Errorf("cycle %d: thread %d frame %d re-entered %v code at pc %d; placed on %v, image pc %d",
						cycle, ti, fi, f.CM.Target, f.PC, th.Kind, img.Threads[ti].Frames[fi].BC)
				}
				if f.PC != 0 {
					midMethod++
				}
			}
		}
		if _, err := dj.Wait(); err != nil {
			t.Fatalf("cycle %d: rehydrated job: %v", cycle, err)
		}
		if got := int32(uint32(dj.Root().Result)); got != wantRes {
			t.Errorf("cycle %d: checksum after hand-off = %d, want %d", cycle, got, wantRes)
		}
		if got := dj.Output(); got != wantOut {
			t.Errorf("cycle %d: output after hand-off = %q, want %q", cycle, got, wantOut)
		}
		if dj.AdmittedAt != srcJob.AdmittedAt {
			t.Errorf("cycle %d: admission cycle changed across hand-off: %d vs %d",
				cycle, dj.AdmittedAt, srcJob.AdmittedAt)
		}
	}
	if froze == 0 || midMethod == 0 {
		t.Fatalf("%d freezes, %d frames re-entered mid-method; test exercised nothing", froze, midMethod)
	}
}

// TestFreezeRehydrateReplayIdentical: the whole freeze+rehydrate flow
// is part of the deterministic schedule — two identical replays produce
// the same image bytes and byte-identical target-side results.
func TestFreezeRehydrateReplayIdentical(t *testing.T) {
	run := func() ([]byte, cell.Clock, uint64, JobStats, string) {
		_, _, img, ok := freezeAt(t, 80_000)
		if !ok {
			t.Fatal("job completed before the freeze point; pick an earlier cycle")
		}
		dst, err := New(testConfig(), buildSnapProg())
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
		return EncodeJobImage(img), dj.CompletedAt, dj.Root().Result, dj.Stats, dj.Output()
	}
	b1, c1, r1, s1, o1 := run()
	b2, c2, r2, s2, o2 := run()
	if !reflect.DeepEqual(b1, b2) {
		t.Error("image bytes differ across identical replays")
	}
	if c1 != c2 || r1 != r2 || o1 != o2 || s1 != s2 {
		t.Errorf("target-side results differ across identical replays: (%d,%d,%+v,%q) vs (%d,%d,%+v,%q)",
			c1, r1, s1, o1, c2, r2, s2, o2)
	}
}

// TestFreezeCtxCancelAborts is the cancellation regression: a cancelled
// context aborts an in-progress freeze cleanly — the parked threads
// resume and the job runs to its normal completion on the source.
func TestFreezeCtxCancelAborts(t *testing.T) {
	wantRes, wantOut := snapResult(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	aborted := false
	for _, cycle := range []cell.Clock{30_000, 80_000, 150_000} {
		src, err := New(testConfig(), buildSnapProg())
		if err != nil {
			t.Fatal(err)
		}
		j, _, err := src.Submit(JobSpec{Name: "snap", Class: "Snap", Method: "main"})
		if err != nil {
			t.Fatal(err)
		}
		if err := src.RunUntil(cycle); err != nil {
			t.Fatal(err)
		}
		_, err = src.Freeze(ctx, j)
		switch {
		case errors.Is(err, context.Canceled):
			aborted = true
		case err == nil:
			// The job happened to sit at a safe point already — the ctx is
			// only polled while driving. Not the case under test.
			continue
		case errors.Is(err, ErrJobDone):
			continue
		default:
			t.Fatalf("cycle %d: freeze under cancelled ctx: %v", cycle, err)
		}
		if j.Frozen() {
			t.Fatal("job marked frozen after an aborted freeze")
		}
		if _, err := j.Wait(); err != nil {
			t.Fatalf("job after aborted freeze: %v", err)
		}
		if got := int32(uint32(j.Root().Result)); got != wantRes {
			t.Errorf("checksum after aborted freeze = %d, want %d", got, wantRes)
		}
		if got := j.Output(); got != wantOut {
			t.Errorf("output after aborted freeze = %q, want %q", got, wantOut)
		}
	}
	if !aborted {
		t.Fatal("no freeze point exercised the cancellation path")
	}
}

// TestFreezeDoneJob: freezing a completed job reports ErrJobDone.
func TestFreezeDoneJob(t *testing.T) {
	v, err := New(testConfig(), buildSnapProg())
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := v.Submit(JobSpec{Name: "snap", Class: "Snap", Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Freeze(context.Background(), j); !errors.Is(err, ErrJobDone) {
		t.Fatalf("freeze of done job = %v, want ErrJobDone", err)
	}
}

// TestRehydrateOnDifferentTopology: the image recompiles for whatever
// kinds the target machine has; a PPE-only target still completes the
// job with the right checksum.
func TestRehydrateOnDifferentTopology(t *testing.T) {
	wantRes, wantOut := snapResult(t)
	_, _, img, ok := freezeAt(t, 80_000)
	if !ok {
		t.Skip("job completed before the freeze point")
	}
	cfg := testConfig()
	cfg.Machine.Topology = cell.PS3Topology(0)
	dst, err := New(cfg, buildSnapProg())
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
	if got := int32(uint32(dj.Root().Result)); got != wantRes {
		t.Errorf("checksum on PPE-only target = %d, want %d", got, wantRes)
	}
	if got := dj.Output(); got != wantOut {
		t.Errorf("output on PPE-only target = %q, want %q", got, wantOut)
	}
}

// TestRehydrateRejectsCorruptImages: invalid images error out of
// Rehydrate before any machine state changes — never a panic, here
// or later in the executor. The image is Snap frozen at cycle 80 000:
// three single-frame threads, main (thread 0) with reference locals 0-2
// and one int on its operand stack, each worker with a reference on its;
// objects 2 and 3 are Workers, whose slot 1 is the reference field c.
func TestRehydrateRejectsCorruptImages(t *testing.T) {
	_, _, img, ok := freezeAt(t, 80_000)
	if !ok {
		t.Skip("job completed before the freeze point")
	}
	if m, w := &img.Threads[0].Frames[0], &img.Threads[1].Frames[0]; len(img.Objects) != 3 ||
		!m.LocalRefs[0] || len(m.Stack) != 1 || len(w.Stack) != 1 || !w.StackRefs[0] ||
		img.Objects[1].Class != "Worker" || len(img.Statics) != 1 || img.Statics[0].Slots[1] != 1 {
		t.Fatalf("the frozen image is not the one the rows below mutate: %+v", img)
	}
	const high = 1 << 32 // passes a 32-bit range check, indexes at 64
	corrupt := map[string]func(*JobImage){
		"no threads":          func(i *JobImage) { i.Threads = nil },
		"unknown class":       func(i *JobImage) { i.Threads[0].Frames[0].Class = "NoSuchClass" },
		"method index":        func(i *JobImage) { i.Threads[0].Frames[0].Method = 99 },
		"bytecode index":      func(i *JobImage) { i.Threads[0].Frames[0].BC = 1 << 20 },
		"thread object ref":   func(i *JobImage) { i.Threads[0].JavaObj = 1 << 20 },
		"joiner index":        func(i *JobImage) { i.Threads[0].Joiners = []int32{42} },
		"monitor object ref":  func(i *JobImage) { i.Monitors[0].Obj = 1 << 20 },
		"monitor null object": func(i *JobImage) { i.Monitors[0].Obj = 0 },
		"statics slot count":  func(i *JobImage) { i.Statics[0].Slots = i.Statics[0].Slots[:0] },

		// References at full width: each of these is in range once
		// truncated to 32 bits.
		"flagged local | 1<<32": func(i *JobImage) { i.Threads[0].Frames[0].Locals[0] |= high },
		"flagged stack | 1<<32": func(i *JobImage) { i.Threads[1].Frames[0].Stack[0] |= high },
		"instance ref | 1<<32":  func(i *JobImage) { i.Objects[1].Slots[1] |= high },
		"ref static | 1<<32":    func(i *JobImage) { i.Statics[0].Slots[1] |= high },
		"pending value | 1<<32": func(i *JobImage) {
			t := &i.Threads[0]
			t.PendingHasVal, t.PendingIsRef, t.PendingVal = true, true, 1|high
		},

		// Payload sizes at full width, and one payload per object.
		"array length wraps to 0 bytes": func(i *JobImage) {
			i.Objects = append(i.Objects, ImageObject{Elem: uint8(isa.ElemInt), Length: 0x40000000})
		},
		"array the size of the heap": func(i *JobImage) {
			n := testConfig().HeapBytes
			i.Objects = append(i.Objects, ImageObject{Elem: uint8(isa.ElemByte), Length: n, Data: make([]byte, n)})
		},
		"instance with array data": func(i *JobImage) { i.Objects[0].Data = []byte{1} },
		"instance with elements":   func(i *JobImage) { i.Objects[0].Elems = []uint32{1} },
		"array with field slots": func(i *JobImage) {
			i.Objects = append(i.Objects, ImageObject{Elem: uint8(isa.ElemInt), Slots: []uint64{0}})
		},
		"int array with elements": func(i *JobImage) {
			i.Objects = append(i.Objects, ImageObject{Elem: uint8(isa.ElemInt), Length: 1, Elems: []uint32{0}})
		},
		"ref array with data": func(i *JobImage) {
			i.Objects = append(i.Objects, ImageObject{Elem: uint8(isa.ElemRef), Length: 1, Data: make([]byte, 4)})
		},

		// Frame type state. Each of the first three passed validation at
		// the parent and panicked the executor on the first quantum:
		// index out of range [4] with length 0, [-1], [7] with length 5.
		"locals dropped": func(i *JobImage) {
			f := &i.Threads[0].Frames[0]
			f.Locals, f.LocalRefs = nil, nil
		},
		"operand stack emptied": func(i *JobImage) {
			f := &i.Threads[0].Frames[0]
			f.Stack, f.StackRefs = nil, nil
		},
		"local ref flags cleared": func(i *JobImage) { clear(i.Threads[0].Frames[0].LocalRefs) },
		"int local flagged":       func(i *JobImage) { i.Threads[0].Frames[0].LocalRefs[3] = true },
		"stack ref flag cleared":  func(i *JobImage) { i.Threads[1].Frames[0].StackRefs[0] = false },
		"operand stack too deep": func(i *JobImage) {
			f := &i.Threads[0].Frames[0]
			f.Stack, f.StackRefs = append(f.Stack, 0), append(f.StackRefs, false)
		},
		"flags shorter than values": func(i *JobImage) {
			f := &i.Threads[0].Frames[0]
			f.LocalRefs = f.LocalRefs[:2]
		},
		"bottom frame awaits a value": func(i *JobImage) {
			// A marker on top with a pending value: the executor would push
			// it into main's frame, which sits at an instruction whose
			// verified stack it already fills.
			t := &i.Threads[0]
			t.PendingHasVal = true
			t.Frames = append(t.Frames, ImageFrame{Marker: true, ReturnKind: "ppe"})
		},
	}
	for name, mutate := range corrupt {
		// Round-trip through the codec for a deep copy to mutate.
		cp, err := DecodeJobImage(EncodeJobImage(img))
		if err != nil {
			t.Fatal(err)
		}
		mutate(cp)
		dst, err := New(testConfig(), buildSnapProg())
		if err != nil {
			t.Fatal(err)
		}
		before := dst.LiveThreads()
		if _, err := dst.Rehydrate(cp, 0, JobSpec{}); err == nil {
			t.Errorf("%s: rehydrate accepted an invalid image", name)
		}
		if dst.LiveThreads() != before {
			t.Errorf("%s: failed rehydrate leaked live threads", name)
		}
	}
}
