package core

import (
	"strings"
	"testing"

	"herajvm/internal/classfile"
	"herajvm/internal/vm"
)

func buildProgram(t *testing.T) *classfile.Program {
	t.Helper()
	p := classfile.NewProgram()
	vm.Stdlib(p)
	c := p.NewClass("Main", nil)
	system := p.Lookup("java/lang/System")
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	a.Str("report test")
	a.InvokeStatic(system.MethodByName("println"))
	a.ConstI(11)
	a.ConstI(31)
	a.MulI()
	a.Ret()
	a.MustBuild()
	return p
}

func testCfg() vm.Config {
	cfg := vm.DefaultConfig()
	cfg.Machine.MainMemory = 16 << 20
	cfg.HeapBytes = 4 << 20
	cfg.CodeBytes = 1 << 20
	cfg.BootBytes = 256 << 10
	return cfg
}

func TestSystemRun(t *testing.T) {
	sys, err := NewSystem(testCfg(), buildProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOnce(sys, "Main", "main")
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasValue || int32(uint32(res.Value)) != 341 {
		t.Errorf("result: %v %d", res.HasValue, int32(uint32(res.Value)))
	}
	if res.Cycles == 0 || res.Millis <= 0 {
		t.Error("timings empty")
	}
	if res.Output != "report test\n" {
		t.Errorf("output: %q", res.Output)
	}
}

func TestSystemReportSections(t *testing.T) {
	sys, err := NewSystem(testCfg(), buildProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runOnce(sys, "Main", "main"); err != nil {
		t.Fatal(err)
	}
	rep := sys.Report()
	for _, want := range []string{
		"machine: 1 PPE + 6 SPEs",
		"PPE", "SPE0", "SPE5",
		"classes:",
		"eib:",
		"jit:",
		"gc:",
		"hottest methods:",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestFmtBytes(t *testing.T) {
	cases := map[uint64]string{
		12:      "12B",
		3 << 10: "3.0KB",
		5 << 20: "5.0MB",
		2 << 30: "2.0GB",
	}
	for n, want := range cases {
		if got := fmtBytes(n); got != want {
			t.Errorf("fmtBytes(%d) = %q want %q", n, got, want)
		}
	}
}

func TestRunUnknownEntry(t *testing.T) {
	sys, err := NewSystem(testCfg(), buildProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runOnce(sys, "Nope", "main"); err == nil {
		t.Error("expected error for unknown class")
	}
	if _, err := runOnce(sys, "Main", "nope"); err == nil {
		t.Error("expected error for unknown method")
	}
}

// runOnce submits one static entry method and waits for its result.
func runOnce(sys *System, class, method string) (*Result, error) {
	job, _, err := sys.Submit(JobRequest{Class: class, Method: method})
	if err != nil {
		return nil, err
	}
	return job.Wait()
}
