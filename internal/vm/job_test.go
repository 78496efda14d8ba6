package vm

import (
	"slices"
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
)

// buildTwoEntryProg returns a program with two independent entry
// methods: EntryA.main prints "A" and returns 11, EntryB.main prints
// "B" and returns 22.
func buildTwoEntryProg() *classfile.Program {
	p := newProg()
	system := p.Lookup("java/lang/System")
	println := system.MethodByName("println")
	build := func(cls, msg string, ret int32) {
		c := p.NewClass(cls, nil)
		m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
		a := m.Asm()
		a.Str(msg)
		a.InvokeStatic(println)
		a.ConstI(ret)
		a.Ret()
		a.MustBuild()
	}
	build("EntryA", "A", 11)
	build("EntryB", "B", 22)
	return p
}

func TestSubmitJobsPerJobOutputAndResults(t *testing.T) {
	vm, err := New(testConfig(), buildTwoEntryProg())
	if err != nil {
		t.Fatal(err)
	}
	ja, _, err := vm.Submit(JobSpec{Class: "EntryA", Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	jb, _, err := vm.Submit(JobSpec{Class: "EntryB", Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	if ja.Done() || jb.Done() {
		t.Fatal("jobs must not run before the machine is driven")
	}
	if err := vm.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		j    *Job
		out  string
		want int32
	}{{ja, "A\n", 11}, {jb, "B\n", 22}} {
		if !tc.j.Done() {
			t.Fatalf("job %d not done after drain", tc.j.ID)
		}
		if got := tc.j.Output(); got != tc.out {
			t.Errorf("job %d output = %q, want %q", tc.j.ID, got, tc.out)
		}
		if got := int32(uint32(tc.j.Root().Result)); got != tc.want {
			t.Errorf("job %d result = %d, want %d", tc.j.ID, got, tc.want)
		}
		if tc.j.Cycles() == 0 || tc.j.CompletedAt <= tc.j.AdmittedAt {
			t.Errorf("job %d has no per-job time: admitted=%d completed=%d",
				tc.j.ID, tc.j.AdmittedAt, tc.j.CompletedAt)
		}
	}
	if len(vm.Jobs()) != 2 {
		t.Errorf("job table has %d entries, want 2", len(vm.Jobs()))
	}
}

func TestSubmitJobArgsAndArrival(t *testing.T) {
	p := newProg()
	c := p.NewClass("Mul", nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int, classfile.Int, classfile.Int)
	a := m.Asm()
	a.LoadI(0)
	a.LoadI(1)
	a.MulI()
	a.Ret()
	a.MustBuild()

	vm, err := New(testConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	const arrival = 90_000
	j, _, err := vm.Submit(JobSpec{Name: "mul", Class: "Mul", Method: "main", Args: []uint64{6, 7}, Arrival: arrival})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := int32(uint32(j.Root().Result)); got != 42 {
		t.Errorf("result = %d, want 42", got)
	}
	if j.AdmittedAt != arrival {
		t.Errorf("admitted at %d, want the requested arrival %d", j.AdmittedAt, arrival)
	}
	if j.CompletedAt <= arrival {
		t.Errorf("completed at %d, before the arrival %d", j.CompletedAt, arrival)
	}
}

// TestWaitJobLeavesOthersPending: waiting on an early job must not
// force a later-arriving job to complete; draining finishes it.
func TestWaitJobLeavesOthersPending(t *testing.T) {
	vm, err := New(testConfig(), buildTwoEntryProg())
	if err != nil {
		t.Fatal(err)
	}
	ja, _, err := vm.Submit(JobSpec{Class: "EntryA", Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	// EntryB arrives far after EntryA completes.
	jb, _, err := vm.Submit(JobSpec{Class: "EntryB", Method: "main", Arrival: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ja.Wait(); err != nil {
		t.Fatal(err)
	}
	if !ja.Done() {
		t.Fatal("waited job not done")
	}
	if jb.Done() {
		t.Error("a job arriving tens of millions of cycles later completed during an early wait")
	}
	if err := vm.Drain(); err != nil {
		t.Fatal(err)
	}
	if !jb.Done() {
		t.Error("drain left a job incomplete")
	}
}

// TestJobChildThreadsInheritJob: threads spawned by a job's threads
// belong to the job — their output lands in the job's capture, and the
// job completes only when they do.
func TestJobChildThreadsInheritJob(t *testing.T) {
	p := newProg()
	threadCls := p.Lookup("java/lang/Thread")
	system := p.Lookup("java/lang/System")

	w := p.NewClass("PrintWorker", threadCls)
	run := w.NewMethod("run", 0, classfile.Void)
	{
		a := run.Asm()
		a.Str("from child")
		a.InvokeStatic(system.MethodByName("println"))
		a.RetVoid()
		a.MustBuild()
	}
	c := p.NewClass("Spawner", nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	a.New(w)
	a.InvokeVirtual(threadCls.MethodByName("start"))
	a.ConstI(1)
	a.Ret()
	a.MustBuild()

	vm, err := New(testConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := vm.Submit(JobSpec{Name: "spawner", Class: "Spawner", Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	// main never joins the child, so completion implies the job waited
	// for the whole thread tree.
	if got := j.Output(); got != "from child\n" {
		t.Errorf("job output = %q, want the child's line", got)
	}
	if len(j.threads) != 2 {
		t.Errorf("job has %d threads, want root + child", len(j.threads))
	}
}

// jobCycleCounts runs the same submission script twice and returns the
// per-job cycle counts of each run.
func jobCycleCounts(t *testing.T, cfg Config) []cell.Clock {
	t.Helper()
	vm, err := New(cfg, buildTwoEntryProg())
	if err != nil {
		t.Fatal(err)
	}
	ja, _, err := vm.Submit(JobSpec{Class: "EntryA", Method: "main", Arrival: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	jb, _, err := vm.Submit(JobSpec{Class: "EntryB", Method: "main", Arrival: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Drain(); err != nil {
		t.Fatal(err)
	}
	return []cell.Clock{ja.Cycles(), jb.Cycles()}
}

// TestFailedSubmitLeavesSessionUsable: a rejected submission (here:
// more args than the entry method has locals) must leave no ghost live
// thread behind — later jobs still drain cleanly.
func TestFailedSubmitLeavesSessionUsable(t *testing.T) {
	vm, err := New(testConfig(), buildTwoEntryProg())
	if err != nil {
		t.Fatal(err)
	}
	args := make([]uint64, 64)
	if _, _, err := vm.Submit(JobSpec{Name: "bad", Class: "EntryA", Method: "main", Args: args}); err == nil {
		t.Fatal("oversized argument list accepted")
	}
	if vm.liveCount != 0 || len(vm.Jobs()) != 0 {
		t.Fatalf("failed submit left state behind: liveCount=%d jobs=%d", vm.liveCount, len(vm.Jobs()))
	}
	j, _, err := vm.Submit(JobSpec{Class: "EntryB", Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Drain(); err != nil {
		t.Fatalf("drain after a failed submit: %v", err)
	}
	if !j.Done() || int32(uint32(j.Root().Result)) != 22 {
		t.Error("job after a failed submit did not complete normally")
	}
}

// TestEqualArrivalOrdering: two jobs with the same arrival cycle are
// admitted in submission order, deterministically.
func TestEqualArrivalOrdering(t *testing.T) {
	a := jobCycleCounts(t, testConfig())
	b := jobCycleCounts(t, testConfig())
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("job %d cycles diverged across identical scripts: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestEveryThreadHasAJob: every way a thread comes to be — a submission's
// root, a Thread.start child, a kernel worker, a rehydrated tree — leaves
// it with the job that owns it, listed in that job. The scheduler hooks,
// the executor's freeze barrier and the output natives read t.job
// without asking whether it is there.
func TestEveryThreadHasAJob(t *testing.T) {
	check := func(name string, v *VM, wantThreads int) {
		t.Helper()
		listed := 0
		for _, j := range v.jobs {
			listed += len(j.threads)
		}
		if len(v.threads) != wantThreads || listed != wantThreads {
			t.Errorf("%s: %d threads, %d listed in jobs, want %d", name, len(v.threads), listed, wantThreads)
		}
		for _, th := range v.threads {
			if th.job == nil || !slices.Contains(th.job.threads, th) {
				t.Errorf("%s: %s has job %v, or is not listed in it", name, th, th.job)
			}
		}
	}

	v, _ := runKernelJob(t, kernelTopology(), "KMain", 600)
	check("kernel launch", v, 1+7) // root + one worker per core: the job is alone

	v, _ = runMain(t, testConfig(), buildComputeWorkers(3, 10), "Main", "main")
	check("Thread.start children", v, 1+3)

	_, _, img, ok := freezeAt(t, 80_000)
	if !ok {
		t.Fatal("job completed before the freeze point")
	}
	dst, err := New(testConfig(), buildSnapProg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Rehydrate(img, 0, JobSpec{}); err != nil {
		t.Fatal(err)
	}
	check("rehydrated tree", dst, len(img.Threads))
}
