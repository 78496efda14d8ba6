package core

import (
	"regexp"
	"strings"
	"testing"

	"herajvm/internal/vm"
	"herajvm/internal/workloads"
)

// TestReportFastForwardClause pins the per-core report line's
// fast-forward clause format: printed after migrations/steals, only when
// the core fast-forwarded at least one block.
func TestReportFastForwardClause(t *testing.T) {
	sys, err := NewSystem(testCfg(), buildProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runOnce(sys, "Main", "main"); err != nil {
		t.Fatal(err)
	}
	c0 := sys.VM.Machine.Cores()[0]
	c0.Stats.FastForwardedBlocks = 12
	c0.Stats.FastForwardedInstrs = 345
	rep := sys.Report()
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
	for _, l := range strings.Split(sys.Report(), "\n") {
		if strings.HasPrefix(l, "PPE") && strings.Contains(l, "ff blocks/instrs") {
			t.Errorf("ff clause printed with zero blocks: %q", l)
		}
	}
}

var ffClause = regexp.MustCompile(` ff blocks/instrs=\d+/\d+`)

// TestReportIdenticalDisableSuperblocks runs a real workload with the
// fast path on and off and requires the full machine reports to be
// byte-identical once the fast-forward clause (the only counter that
// records which path executed) is stripped.
func TestReportIdenticalDisableSuperblocks(t *testing.T) {
	run := func(disable bool) string {
		spec := workloads.All()[0] // compress
		prog, err := spec.Build(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := vm.DefaultConfig()
		cfg.Machine.MainMemory = 32 << 20
		cfg.HeapBytes = 8 << 20
		cfg.DisableSuperblocks = disable
		sys, err := NewSystem(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runOnce(sys, spec.MainClass, "main"); err != nil {
			t.Fatal(err)
		}
		return sys.Report()
	}
	fast, slow := run(false), run(true)
	if !strings.Contains(fast, "ff blocks/instrs=") {
		t.Error("fast run's report shows no fast-forwarding")
	}
	if strings.Contains(slow, "ff blocks/instrs=") {
		t.Error("disabled run's report shows fast-forwarding")
	}
	if f, s := ffClause.ReplaceAllString(fast, ""), ffClause.ReplaceAllString(slow, ""); f != s {
		t.Errorf("reports diverge beyond the ff clause:\n--- fast ---\n%s\n--- slow ---\n%s", f, s)
	}
}
