package vm

import (
	"strings"
	"testing"

	"herajvm/internal/classfile"
)

func buildReportProgram() *classfile.Program {
	p := newProg()
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

// runOnce submits one static entry method and waits for its result.
func runOnce(v *VM, class, method string) (*Result, error) {
	job, _, err := v.Submit(JobSpec{Class: class, Method: method})
	if err != nil {
		return nil, err
	}
	return job.Wait()
}

func TestSystemRun(t *testing.T) {
	v, err := New(testConfig(), buildReportProgram())
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOnce(v, "Main", "main")
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
	v, err := New(testConfig(), buildReportProgram())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runOnce(v, "Main", "main"); err != nil {
		t.Fatal(err)
	}
	rep := v.Report()
	for _, want := range []string{
		"machine: 1 PPE + 6 SPEs",
		"PPE", "SPE0", "SPE5",
		"classes:",
		"eib:",
		"jit:",
		"gc:",
		"jobs: 1 submitted, 1 completed",
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
	v, err := New(testConfig(), buildReportProgram())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runOnce(v, "Nope", "main"); err == nil {
		t.Error("expected error for unknown class")
	}
	if _, err := runOnce(v, "Main", "nope"); err == nil {
		t.Error("expected error for unknown method")
	}
}

// TestReportFastForwardClause pins the per-core report line's
// fast-forward clause format: printed after migrations/steals, only when
// the core fast-forwarded at least one block.
func TestReportFastForwardClause(t *testing.T) {
	v, err := New(testConfig(), buildReportProgram())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runOnce(v, "Main", "main"); err != nil {
		t.Fatal(err)
	}
	c0 := v.Machine.Cores()[0]
	c0.Stats.FastForwardedBlocks = 12
	c0.Stats.FastForwardedInstrs = 345
	rep := v.Report()
	line := ""
	for _, l := range strings.Split(rep, "\n") {
		if strings.HasPrefix(l, "PPE") {
			line = l
			break
		}
	}
	if line == "" {
		t.Fatalf("no PPE line in report:\n%s", rep)
	}
	if !strings.Contains(line, " ff blocks/instrs=12/345") {
		t.Errorf("PPE line missing pinned ff clause: %q", line)
	}
	if !strings.Contains(line, "mig in/out=") ||
		strings.Index(line, "mig in/out=") > strings.Index(line, "ff blocks/instrs=") {
		t.Errorf("ff clause must follow the migration counters: %q", line)
	}

	// A core that never fast-forwarded must not print the clause.
	c0.Stats.FastForwardedBlocks = 0
	c0.Stats.FastForwardedInstrs = 0
	for _, l := range strings.Split(v.Report(), "\n") {
		if strings.HasPrefix(l, "PPE") && strings.Contains(l, "ff blocks/instrs") {
			t.Errorf("ff clause printed with zero blocks: %q", l)
		}
	}
}
