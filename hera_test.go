package hera_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	hera "herajvm"
)

func TestQuickstartAPI(t *testing.T) {
	prog := hera.NewProgram()
	cls := prog.NewClass("Main", nil)
	m := cls.NewMethod("main", hera.Static, hera.Int)
	a := m.Asm()
	a.ConstI(21)
	a.ConstI(2)
	a.MulI()
	a.Ret()
	a.MustBuild()

	sys, err := hera.NewSystem(hera.DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOnce(sys, "Main", "main")
	if err != nil {
		t.Fatal(err)
	}
	if int32(uint32(res.Value)) != 42 {
		t.Errorf("result: %d", int32(uint32(res.Value)))
	}
	if res.Cycles == 0 {
		t.Error("no cycles elapsed")
	}
	if !strings.Contains(sys.Report(), "machine: 1 PPE + 6 SPEs") {
		t.Error("report header missing")
	}
}

func TestAnnotatedMigrationThroughFacade(t *testing.T) {
	prog := hera.NewProgram()
	cls := prog.NewClass("Main", nil)
	hot := cls.NewMethod("hot", hera.Static, hera.Double, hera.Double).
		Annotate(hera.RunOnSPE)
	{
		a := hot.Asm()
		a.LoadD(0)
		a.ConstD(3.0)
		a.MulD()
		a.Ret()
		a.MustBuild()
	}
	m := cls.NewMethod("main", hera.Static, hera.Int)
	a := m.Asm()
	a.ConstD(14.0)
	a.InvokeStatic(hot)
	a.D2I()
	a.Ret()
	a.MustBuild()

	sys, err := hera.NewSystem(hera.DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOnce(sys, "Main", "main")
	if err != nil {
		t.Fatal(err)
	}
	if int32(uint32(res.Value)) != 42 {
		t.Errorf("result: %d", int32(uint32(res.Value)))
	}
	if !strings.Contains(sys.Report(), "mig in/out") {
		t.Error("report should include migration counters")
	}
}

func TestWorkloadRegistry(t *testing.T) {
	all := hera.Workloads()
	if len(all) != 3 {
		t.Fatalf("want 3 workloads, got %d", len(all))
	}
	for _, w := range all {
		if w.Reference(2, 1) != w.Reference(6, 1) {
			t.Errorf("%s: checksum should be thread-independent", w.Name)
		}
	}
	if _, err := hera.WorkloadByName("mandelbrot"); err != nil {
		t.Error(err)
	}
}

func TestFixedPolicyThroughFacade(t *testing.T) {
	prog := hera.NewProgram()
	cls := prog.NewClass("Main", nil)
	m := cls.NewMethod("main", hera.Static, hera.Int)
	a := m.Asm()
	a.ConstI(7)
	a.Ret()
	a.MustBuild()

	cfg := hera.DefaultConfig()
	cfg.Policy = hera.FixedPolicy{Kind: hera.SPE}
	sys, err := hera.NewSystem(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOnce(sys, "Main", "main")
	if err != nil {
		t.Fatal(err)
	}
	if int32(uint32(res.Value)) != 7 {
		t.Errorf("result: %d", res.Value)
	}
}

// runOnce submits one static entry method and waits for its result.
func runOnce(sys *hera.System, class, method string) (*hera.Result, error) {
	job, _, err := sys.Submit(hera.JobRequest{Class: class, Method: method})
	if err != nil {
		return nil, err
	}
	return job.Wait()
}

// TestBadConfigThroughFacade: a Config no machine can run comes back
// from NewSystem as an error a caller can match, not a panic or a job
// that never finishes.
func TestBadConfigThroughFacade(t *testing.T) {
	cfg := hera.DefaultConfig()
	cfg.Quantum = 0
	if _, err := hera.NewSystem(cfg, hera.NewProgram()); !errors.Is(err, hera.ErrBadConfig) {
		t.Errorf("NewSystem with Quantum 0 = %v, want ErrBadConfig", err)
	}
}

// TestBootAllocBudget bounds what booting the default machine
// allocates on the host, by count rather than by timer. What remains is
// mostly the six 256 KB local stores (1.5 MB); the budget fails if a
// table sized for the worst case comes back (the data caches' indexes
// were 1.5 MB more).
func TestBootAllocBudget(t *testing.T) {
	spec, err := hera.WorkloadByName("mandelbrot")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Build(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := hera.NewSystem(hera.DefaultConfig(), prog); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2500<<10 {
		t.Fatalf("NewSystem on the default topology allocates %d bytes, budget 2.5 MB", got)
	}
}
