package hera_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// seams are the repository's "said once" rules: each names a mechanism
// that lives in one place (or was deleted and may not come back without
// the design that needs it — ROADMAP, standing notes), as a pattern no
// line of non-test Go under its roots may match outside the allowed
// places: a file, or "file:name" for the one top-level function or
// method of that name in it. docs/ARCHITECTURE.md has the section each
// rule cites.
var seams = []struct {
	rule    string
	pattern string
	roots   []string
	allowed []string
}{
	// "Memory model": only coherence.go flushes or purges a data cache,
	// touches a thread's deferred acquire or reads the A4 ablation switch.
	{"the coherence protocol is named only in internal/vm/coherence.go",
		`\.Flush\(|\.Purge\(|\.needPurge|\.UnsafeNoCoherence`,
		[]string{"internal/vm"}, []string{"internal/vm/coherence.go"}},
	// "Where references live": refs.go alone tests a field's or slot's
	// kind; nothing tags a slot at run time; reference flags exist only as
	// a job image's own fields.
	{"reference kinds are tested only in internal/vm/refs.go",
		`\.IsRef\(\)|== classfile\.Ref`,
		[]string{"internal/vm"}, []string{"internal/vm/refs.go"}},
	{"no run-time reference tag",
		`FlagWrite|LFlags|SFlags|microFlag|maxFlagWrites|ArgRefs|argRefs`,
		[]string{"."}, nil},
	{"reference flags are a job image's own fields",
		`LocalRefs|StackRefs`,
		[]string{"."}, []string{"internal/vm/refs.go", "internal/vm/snapshot.go",
			"internal/vm/imagecodec.go", "internal/vm/rehydrate.go"}},
	// "Host-side tables are sized by use": Asm.Build writes bound
	// positions into the instructions, so labels end there.
	{"assembler labels are named only in internal/classfile/asm.go",
		`classfile\.Label|\*Label`,
		[]string{"."}, []string{"internal/classfile/asm.go"}},
	// "Job hand-off": one bytecode lowers to one instruction on every
	// kind, so a PC needs no translating; blocks are valid whatever the
	// data cache holds; every thread has a job.
	{"one program counter: no index maps, residency hooks or job-less thread start",
		`EntryOf|BCIndex|TranslatePC|AtBytecodeBoundary|ResMask|ResidencyClass|StartThread`,
		[]string{"."}, nil},
	// "Replayable figures": a figure is a pure function of its options.
	// Host time is the repository benchmark's to measure (benchmark/).
	{"internal/experiments reads no host clock",
		`^\s*(import\s+)?(\w+\s+)?"(time|runtime)"`,
		[]string{"internal/experiments"}, nil},
	{"no wall-clock column, and no knob to hide one",
		`NoWall|nowall|Options\.Baseline|WallSecs|HostCPUs`,
		[]string{"."}, nil},
	// "Job lifecycle": the VM is the one job API — Submit, Job.Wait,
	// Probe, Drain, Freeze, Rehydrate — and hera.System only embeds it.
	{"one job API",
		`SubmitJob|WaitJob|DrainJobs|ProbeJob|FreezeJob|RehydrateJob|RunMain|internal/core`,
		[]string{"."}, nil},
	{"no forwarding layer: vm.System declares no methods",
		`^func \(\w+ \*?System\)`,
		[]string{"internal/vm"}, nil},
	// "Adding a core kind": the kinds are a fixed table built at init;
	// every local-store core has the machine's one local store and split.
	{"a core kind is a row of isa's table",
		`Register\(|RegisterCoreKind|LocalStoreBytes|DataCacheBytes|CodeCacheBytes|cachesOf`,
		[]string{"."}, nil},
	// "Machine numbers have one home": what no caller varies is a named
	// constant beside its one use, not a field.
	{"machine numbers no caller varies are constants",
		`MigrationBaseCycles|MigrationWordCycles|SyscallSendCycles|SyscallServeCycles|GCPauseBase|GCPerObject|AdaptiveStepKB|BranchPredictorBits|\.PPEMem\b|` +
			`\b(ProbeCycles|InsertCycles|AccessCycles|TOCCycles|TIBCycles|ReturnCycles)\b|MaxEntryBytes(:|\s+uint32)`,
		[]string{"."}, nil},
	// "Job lifecycle": the machine's one policy places every job's
	// threads, and a job's output is its own buffer; a setting no caller
	// varies is a constant.
	{"one policy per machine, one output per job",
		`JobSpec\{[^}]*Policy|ImagePolicy|encodePolicy|policyOf|outBuf|\.JoinWakeCycles|MaxHandoffs|FPThreshold|MemThreshold`,
		[]string{"."}, nil},
	// "The three built-in schedulers": a queued task is a typed heap
	// entry, never boxed into an interface on the per-quantum path.
	{"the scheduler's queues are typed heaps",
		`"container/heap"`,
		[]string{"internal"}, nil},
	// "Superblock fast path": the replay clocks as it goes and bills a
	// chain of blocks once, so a block keeps one class vector and the
	// replay writes class vectors only where it settles a chain (a
	// stepped instruction bills through chargeDyn).
	{"the replay keeps no per-segment vectors",
		`FastForwardTail|\bSegs?\b|\bFirstLen\b|chargeVec`,
		[]string{"."}, nil},
	{"the replay writes class vectors only when it settles a chain",
		`(Stats|ctr)\.Cycles\[`,
		[]string{"internal/vm", "internal/cell"},
		[]string{"internal/vm/exec.go:chargeDyn", "internal/vm/fastpath.go:settle",
			"internal/cell/machine.go:SettleFastForward"}},
}

// funcDecl captures the name of a top-level function or method.
var funcDecl = regexp.MustCompile(`^func (\([^)]*\) )?(\w+)`)

// TestSeams walks the tree once per rule.
func TestSeams(t *testing.T) {
	for _, s := range seams {
		re := regexp.MustCompile(s.pattern)
		for _, root := range s.roots {
			err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				path = filepath.ToSlash(path)
				if d.IsDir() || !strings.HasSuffix(path, ".go") ||
					strings.HasSuffix(path, "_test.go") || slices.Contains(s.allowed, path) {
					return nil
				}
				src, err := os.ReadFile(path)
				fn := ""
				for n, line := range strings.Split(string(src), "\n") {
					if m := funcDecl.FindStringSubmatch(line); m != nil {
						fn = m[2]
					}
					if re.MatchString(line) && !slices.Contains(s.allowed, path+":"+fn) {
						t.Errorf("%s:\n  %s:%d: %s", s.rule, path, n+1, strings.TrimSpace(line))
					}
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}
