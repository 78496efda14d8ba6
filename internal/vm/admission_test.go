package vm

import (
	"errors"
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
)

// buildChurnProg returns a program whose entry allocates 4 KB arrays in
// a loop — enough churn to force collections in a small heap — and
// returns the loop count.
func buildChurnProg(iters int32) *classfile.Program {
	p := newProg()
	c := p.NewClass("Churn", nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	loop, done := a.NewLabel(), a.NewLabel()
	a.ConstI(0)
	a.StoreI(0)
	a.Bind(loop)
	a.LoadI(0)
	a.ConstI(iters)
	a.IfICmpGE(done)
	a.ConstI(1024)
	a.NewArray(classfile.ElemInt)
	a.Pop()
	a.Inc(0, 1)
	a.Goto(loop)
	a.Bind(done)
	a.LoadI(0)
	a.Ret()
	a.MustBuild()
	return p
}

// TestAdmissionZeroConfigAdmitsEverything: the zero AdmissionConfig is
// the pre-admission contract — every well-formed submission is
// admitted (or delayed), never shed, deadline or not.
func TestAdmissionZeroConfigAdmitsEverything(t *testing.T) {
	vm, err := New(testConfig(), buildTwoEntryProg())
	if err != nil {
		t.Fatal(err)
	}
	ja, _, err := vm.Submit(JobSpec{Class: "EntryA", Method: "main", Deadline: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ja.Verdict == VerdictShed {
		t.Fatal("zero-config admission shed a job")
	}
	if err := vm.Drain(); err != nil {
		t.Fatal(err)
	}
	// The impossible deadline is still reported honestly.
	if ja.DeadlineMet {
		t.Error("a 1-cycle deadline was reported met")
	}
	if ja.Deadline != ja.AdmittedAt+1 {
		t.Errorf("absolute deadline = %d, want admitted+1 = %d", ja.Deadline, ja.AdmittedAt+1)
	}
}

// TestAdmissionDeadlineShed: with shedding enabled, a deadline shorter
// than one predicted scheduling round is refused at admission; the shed
// job is done immediately, waits return at once, and a roomy deadline
// on the same machine is admitted.
func TestAdmissionDeadlineShed(t *testing.T) {
	cfg := testConfig()
	cfg.Admission = AdmissionConfig{Shed: true}
	vm, err := New(cfg, buildTwoEntryProg())
	if err != nil {
		t.Fatal(err)
	}
	shed, _, err := vm.Submit(JobSpec{Class: "EntryA", Method: "main", Deadline: 1})
	if err != nil {
		t.Fatal(err)
	}
	if shed.Verdict != VerdictShed {
		t.Fatalf("1-cycle deadline verdict = %v, want shed", shed.Verdict)
	}
	if !shed.Done() || shed.DeadlineMet || shed.Root() != nil {
		t.Error("a shed job must be done at admission, with no threads and no met deadline")
	}
	if _, err := shed.Wait(); err != nil {
		t.Errorf("waiting on a shed job: %v", err)
	}
	ok, _, err := vm.Submit(JobSpec{Class: "EntryB", Method: "main", Deadline: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if ok.Verdict == VerdictShed {
		t.Fatal("roomy deadline shed on an idle machine")
	}
	if err := vm.Drain(); err != nil {
		t.Fatal(err)
	}
	if !ok.DeadlineMet {
		t.Error("roomy deadline not met on an idle machine")
	}
}

// TestAdmissionServiceEstimateShed: once a completion has taught the
// VM its observed service time, a deadline far below that estimate is
// shed while one far above it is admitted — the probe's prediction
// follows measured history, not hope.
func TestAdmissionServiceEstimateShed(t *testing.T) {
	cfg := testConfig()
	cfg.Admission = AdmissionConfig{Shed: true}
	vm, err := New(cfg, buildTwoEntryProg())
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := vm.Submit(JobSpec{Class: "EntryA", Method: "main", Deadline: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	service := uint64(first.Cycles())
	if vm.jobServiceEWMA != service {
		t.Fatalf("service EWMA = %d after one completion of %d cycles", vm.jobServiceEWMA, service)
	}
	tight, _, err := vm.Submit(JobSpec{Class: "EntryB", Method: "main", Deadline: cell.Clock(service / 2)})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Verdict != VerdictShed {
		t.Errorf("deadline at half the observed service time admitted (verdict %v)", tight.Verdict)
	}
	roomy, _, err := vm.Submit(JobSpec{Class: "EntryB", Method: "main", Deadline: cell.Clock(service * 10)})
	if err != nil {
		t.Fatal(err)
	}
	if roomy.Verdict == VerdictShed {
		t.Errorf("deadline at 10x the observed service time shed")
	}
	if err := vm.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionMaxPendingBackstop: the queue-depth backstop sheds the
// submission that would exceed MaxPending in-flight jobs, regardless
// of deadline, and readmits once the queue drains.
func TestAdmissionMaxPendingBackstop(t *testing.T) {
	cfg := testConfig()
	cfg.Admission = AdmissionConfig{MaxPending: 1, Shed: true}
	vm, err := New(cfg, buildTwoEntryProg())
	if err != nil {
		t.Fatal(err)
	}
	ja, _, err := vm.Submit(JobSpec{Class: "EntryA", Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	if ja.Verdict == VerdictShed {
		t.Fatal("first job shed by a MaxPending=1 backstop")
	}
	jb, _, err := vm.Submit(JobSpec{Class: "EntryB", Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	if jb.Verdict != VerdictShed {
		t.Fatalf("second concurrent job verdict = %v, want shed (backstop)", jb.Verdict)
	}
	if err := vm.Drain(); err != nil {
		t.Fatal(err)
	}
	jc, _, err := vm.Submit(JobSpec{Class: "EntryB", Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	if jc.Verdict == VerdictShed {
		t.Error("backstop still shedding after the queue drained")
	}
	if err := vm.Drain(); err != nil {
		t.Fatal(err)
	}
}

// shedInterleavedCycles submits three equal-arrival jobs where the
// middle one is shed (impossible deadline) and returns the completed
// jobs' cycle counts — the replay fingerprint of the (arrival,
// sequence) total order with a shed decision interleaved.
func shedInterleavedCycles(t *testing.T) []cell.Clock {
	t.Helper()
	cfg := testConfig()
	cfg.Admission = AdmissionConfig{Shed: true}
	vm, err := New(cfg, buildTwoEntryProg())
	if err != nil {
		t.Fatal(err)
	}
	const arrival = 10_000
	ja, _, err := vm.Submit(JobSpec{Class: "EntryA", Method: "main", Arrival: arrival})
	if err != nil {
		t.Fatal(err)
	}
	mid, _, err := vm.Submit(JobSpec{Class: "EntryB", Method: "main", Arrival: arrival, Deadline: 1})
	if err != nil {
		t.Fatal(err)
	}
	jc, _, err := vm.Submit(JobSpec{Class: "EntryB", Method: "main", Arrival: arrival})
	if err != nil {
		t.Fatal(err)
	}
	if mid.Verdict != VerdictShed {
		t.Fatal("middle job was not shed")
	}
	if err := vm.Drain(); err != nil {
		t.Fatal(err)
	}
	// The shed job holds its slot in the admission order.
	jobs := vm.Jobs()
	if len(jobs) != 3 || jobs[0] != ja || jobs[1] != mid || jobs[2] != jc {
		t.Fatal("admission order does not include the shed job in sequence position")
	}
	return []cell.Clock{ja.Cycles(), jc.Cycles()}
}

// TestShedHoldsAdmissionOrder: equal-arrival jobs interleaved with a
// shed decision keep the (arrival, sequence) total order — replaying
// the script reproduces the survivors' cycle counts exactly.
func TestShedHoldsAdmissionOrder(t *testing.T) {
	a := shedInterleavedCycles(t)
	b := shedInterleavedCycles(t)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("surviving job %d cycles diverged across replays: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestGCBillingSumsToMachineTime: per-job GC cycles plus the
// unattributed bucket must equal the machine-wide collector total,
// and an allocation-heavy job must actually be billed.
func TestGCBillingSumsToMachineTime(t *testing.T) {
	cfg := testConfig()
	cfg.HeapBytes = 2 << 20 // force collections: ~16 MB churn in a 2 MB heap
	vm, err := New(cfg, buildChurnProg(4000))
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := vm.Submit(JobSpec{Class: "Churn", Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Drain(); err != nil {
		t.Fatal(err)
	}
	if vm.GCCount == 0 {
		t.Fatal("churn program triggered no collections")
	}
	if j.Stats.GCPauses == 0 || j.Stats.GCCycles == 0 {
		t.Error("the allocating job was billed no GC time")
	}
	var billed uint64
	for _, job := range vm.Jobs() {
		billed += job.Stats.GCCycles
	}
	if billed+vm.GCUnattributedCycles != vm.GCCycles {
		t.Errorf("GC billing does not sum: jobs %d + unattributed %d != machine %d",
			billed, vm.GCUnattributedCycles, vm.GCCycles)
	}
}

// TestErrDeadlockTyped: a deadlocked machine surfaces through the
// typed sentinel, so callers can errors.Is it apart from per-job
// traps.
func TestErrDeadlockTyped(t *testing.T) {
	p := newProg()
	obj := p.Lookup("java/lang/Object")
	main := p.NewClass("Main", nil)
	m := main.NewMethod("main", classfile.FlagStatic, classfile.Void)
	a := m.Asm()
	a.New(p.Object)
	a.StoreRef(0)
	a.LoadRef(0)
	a.MonitorEnter()
	a.LoadRef(0)
	a.InvokeVirtual(obj.MethodByName("wait")) // nobody will notify
	a.RetVoid()
	a.MustBuild()
	vm, err := New(testConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := vm.Submit(JobSpec{Class: "Main", Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); !errors.Is(err, ErrDeadlock) {
		t.Errorf("deadlocked machine returned %v, want errors.Is ErrDeadlock", err)
	}
}

// TestProbeRefusesWhatSubmitRefuses: Probe runs Submit's entry checks,
// so an entry Submit refuses — here an instance method — is an error
// from the probe too, never a priced completion a dispatcher would
// route on and then fail to submit.
func TestProbeRefusesWhatSubmitRefuses(t *testing.T) {
	p := buildTwoEntryProg()
	a := p.NewClass("Inst", nil).NewMethod("run", 0, classfile.Int).Asm()
	a.ConstI(1)
	a.Ret()
	a.MustBuild()
	vm, err := New(testConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []JobSpec{
		{Class: "Inst", Method: "run"},
		{Class: "Nope", Method: "main"},
		{Class: "EntryA", Method: "nope"},
	} {
		if _, _, err := vm.Submit(spec); err == nil {
			t.Errorf("Submit(%s.%s) succeeded", spec.Class, spec.Method)
		}
		if c, _, err := vm.Probe(spec); err == nil {
			t.Errorf("Probe(%s.%s) = completion %d, want the error Submit gives", spec.Class, spec.Method, c)
		}
	}
	if _, room, err := vm.Probe(JobSpec{Class: "EntryA", Method: "main"}); err != nil || !room {
		t.Errorf("Probe(EntryA.main) = room %v, err %v", room, err)
	}
}
