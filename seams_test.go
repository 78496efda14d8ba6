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
	// kind; nothing tags a slot, at run time or in a job image.
	{"reference kinds are tested only in internal/vm/refs.go",
		`\.IsRef\(\)|== classfile\.Ref`,
		[]string{"internal/vm"}, []string{"internal/vm/refs.go"}},
	{"no run-time reference tag",
		`FlagWrite|LFlags|SFlags|microFlag|maxFlagWrites|ArgRefs|argRefs|LocalRefs|StackRefs|PendingIsRef`,
		[]string{"."}, nil},
	// "Job hand-off": a callee that returned across a migration pushed
	// its value into the caller's frame, so nothing else carries it, and
	// the caller's own code says which kind the return goes back to.
	{"a returned value travels in its caller's frame",
		`pendingVal|pendingHasVal|pendingIsRef|setPending|awaitsRef|PendingVal|PendingHasVal|ReturnCore|hasPendingThrow`,
		[]string{"."}, nil},
	// "The scheduler contract", kind changes: each frame's code names the
	// kind it runs on, so a migration point is where two adjacent frames
	// differ — no frame or thread field restates it.
	{"a migration point is two adjacent frames on different kinds",
		`\.Marker\b|Marker:|ReturnKind|pendingMigrate|hasPendingMigrate`,
		[]string{"."}, nil},
	// "Kernel offload layer": a launch goes to the pool predicted to finish it
	// first, priced from the body's code on each kind; no lane count
	// ranks pools, and the figure reads the pool from the job.
	{"kernel pools are priced by the body, not by lane count",
		`SPMDWidth|\bScore\(\)|poolKindFor`,
		[]string{"."}, nil},
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
	// "Host-side tables are sized by use": a workload, paper or kernel,
	// is one Spec, and its builders name classes only through the
	// harness's namespace, the one place a job copy's prefix is applied.
	{"one workload type",
		`KernelSpec|AsSpec|BuildInto|KernelByName|KernelWorkload\b`,
		[]string{"."}, nil},
	{"workload classes are named only through the harness namespace",
		`\.NewClass\(|JobPrefix\(`,
		[]string{"internal/workloads"},
		[]string{"internal/workloads/harness.go:class", "internal/workloads/jobmix.go"}},
	// "Replayable figures": a figure is a pure function of its options.
	// Host time is the repository benchmark's to measure (benchmark/).
	{"internal/experiments reads no host clock",
		`^\s*(import\s+)?(\w+\s+)?"(time|runtime)"`,
		[]string{"internal/experiments"}, nil},
	// One front end per driver: herabench alone parses the figures'
	// flags, herajvm runs one program through the public package, and a
	// figure's claims live in its Check with no opt-in switch.
	{"flags are parsed only under cmd/",
		`^\s*(import\s+)?(\w+\s+)?"flag"`,
		[]string{"internal", "hera.go"}, nil},
	{"herajvm reaches the simulator through the hera package alone",
		`"herajvm/internal/`,
		[]string{"cmd/herajvm"}, nil},
	{"no opt-in figure gate",
		`MinSpeedup|minspeedup|\bGates?\b|gate: ok`,
		[]string{"."}, nil},
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
		`MigrationBaseCycles|MigrationWordCycles|SyscallSendCycles|SyscallServeCycles|GCPauseBase|GCPerObject|AdaptiveStepKB|AdaptiveIntervalCycles|MigrateCooldownCycles|BranchPredictorBits|\.PPEMem\b|` +
			`\b(ProbeCycles|InsertCycles|AccessCycles|TOCCycles|TIBCycles|ReturnCycles)\b|MaxEntryBytes(:|\s+uint32)`,
		[]string{"."}, nil},
	// "Job lifecycle": the machine's one policy places every job's
	// threads, and a job's output is its own buffer; a setting no caller
	// varies is a constant.
	{"one policy per machine, one output per job",
		`JobSpec\{[^}]*Policy|ImagePolicy|encodePolicy|policyOf|outBuf|\.JoinWakeCycles|MaxHandoffs|FPThreshold|MemThreshold`,
		[]string{"."}, nil},
	// "The one policy": a queued task is a typed heap entry, never
	// boxed into an interface on the per-quantum path.
	{"the scheduler's queues are typed heaps",
		`"container/heap"`,
		[]string{"internal"}, nil},
	// "The one policy": the VM owns the thread-to-core mapping, so no
	// program, figure or flag selects a scheduler (Config.Scheduler is
	// the benchmark module's shim alone).
	{"one scheduler: nothing selects another",
		`\.Scheduler\s*=[^=]|\bScheduler:|"sched"|type Scheduler interface`,
		[]string{"cmd", "internal", "examples", "hera.go"}, nil},
	// "Superblock fast path": the replay clocks as it goes and bills a
	// chain of blocks once, so a block keeps one class vector and the
	// replay writes class vectors only where it settles a chain
	// (chainBill.settle, in the ledger).
	{"the replay keeps no per-segment vectors",
		`FastForwardTail|\bSegs?\b|\bFirstLen\b|chargeVec`,
		[]string{"."}, nil},
	{"the replay writes class vectors only when it settles a chain",
		`(Stats|ctr)\.Cycles\[`,
		[]string{"internal/vm", "internal/cell"},
		[]string{"internal/vm/ledger.go", "internal/cell/machine.go:SettleFastForward"}},
	// "Main memory is demand paged on the host": a page is made in one
	// place, from the process's pool when it has one, and kept only in
	// the table that mapped it; a table's pages go back to the pool only
	// once its owner — a Main, or the MFC of a local store — is
	// unreachable, registered where the owner makes the table.
	{"a host page is made only by mem's newPage",
		`new\(\[(mem\.)?PageSize\]byte\)|pool\.Get\(`,
		[]string{"."}, []string{"internal/mem/pages.go:newPage"}},
	{"a table's pages go back to the pool only when its owner is unreachable",
		`pool\.Put\(|\.recycle\(|runtime\.AddCleanup|onUnreachable\(|OwnPages\(`,
		[]string{"."}, []string{"internal/mem/pages.go:recycle", "internal/mem/pages.go:OwnPages",
			"internal/mem/cleanup.go", "internal/mem/mem.go:mapped", "internal/cell/mfc.go:NewMFC"}},
	// "Cycle accounting": one per-method ledger. A frame is born
	// profiled and bills its method through the ledger's functions
	// alone, so nothing else writes a method's counters.
	{"a method's counters are written only in internal/vm/ledger.go",
		`ctr\.Cycles\[|\.Invokes\+\+|chargeDyn`,
		[]string{"internal/vm"}, []string{"internal/vm/ledger.go"}},
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
