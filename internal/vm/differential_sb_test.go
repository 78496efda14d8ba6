// Superblock differential harness: every workload runs twice — fast
// path enabled (the default) vs Config.DisableSuperblocks — and the two
// machines must agree on everything observable: checksums, final clocks,
// per-core per-class cycle counters, retired instructions, idle time,
// branch-predictor counters, per-job cycles, the rendered per-core stat
// strings and every method's ledger counters. This is the enforcement
// of the memoization contract: fast-forwarding a block is an accounting
// shortcut, never a semantics change.
//
// The file is an external test package because the workloads package
// imports vm; the in-package differential tests (random straight-line
// programs vs a Go mirror) live in differential_test.go.
package vm_test

import (
	"errors"
	"strings"
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
	"herajvm/internal/vm"
	"herajvm/internal/workloads"
)

// sbScale keeps the differential sweep fast; the full-size runs are
// herabench's job.
var sbScale = map[string]int{
	"compress":   1,
	"mpegaudio":  2,
	"mandelbrot": 1,
}

// sbMachines are the machine settings the sweep runs every workload on:
// the default PS3 shape; a quantum so short that replays hand back at
// memory boundaries constantly; and a three-kind machine, so VPU blocks
// replay too. A row's subtests are named row/workload, the default's
// by the workload alone.
var sbMachines = []struct {
	name   string
	mutate func(t *testing.T, cfg *vm.Config)
}{
	{"", func(*testing.T, *vm.Config) {}},
	{"quantum500", func(_ *testing.T, cfg *vm.Config) { cfg.Quantum = 500 }},
	{"ppe1spe4vpu2", func(t *testing.T, cfg *vm.Config) {
		topo, err := cell.ParseTopology("ppe:1,spe:4,vpu:2")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Machine.Topology = topo
	}},
}

func TestDifferentialSuperblockWorkloads(t *testing.T) {
	const threads = 4
	for _, mc := range sbMachines {
		for _, spec := range workloads.All() {
			name := spec.Name
			if mc.name != "" {
				name = mc.name + "/" + name
			}
			t.Run(name, func(t *testing.T) {
				scale := sbScale[spec.Name]
				if scale == 0 {
					scale = 1
				}
				type outcome struct {
					machine *vm.VM
					job     *vm.Job
				}
				run := func(disable bool) outcome {
					prog, err := spec.Build(threads, scale)
					if err != nil {
						t.Fatal(err)
					}
					cfg := vm.DefaultConfig()
					cfg.Machine.MainMemory = 32 << 20
					cfg.HeapBytes = 8 << 20
					cfg.DisableSuperblocks = disable
					mc.mutate(t, &cfg)
					machine, err := vm.New(cfg, prog)
					if err != nil {
						t.Fatal(err)
					}
					job, _, err := machine.Submit(vm.JobSpec{Name: spec.Name, Class: spec.MainClass, Method: "main"})
					if err != nil {
						t.Fatal(err)
					}
					if err := machine.Drain(); err != nil {
						t.Fatal(err)
					}
					if err := job.Err(); err != nil {
						t.Fatal(err)
					}
					return outcome{machine, job}
				}
				fast, slow := run(false), run(true)

				fsum := int32(uint32(fast.job.Root().Result))
				ssum := int32(uint32(slow.job.Root().Result))
				if want := spec.Reference(threads, scale); fsum != want || ssum != want {
					t.Fatalf("checksums: fast=%d slow=%d reference=%d", fsum, ssum, want)
				}
				if f, s := fast.job.Cycles(), slow.job.Cycles(); f != s {
					t.Errorf("job cycles: fast=%d slow=%d", f, s)
				}
				if ff := sameMachine(t, fast.machine, slow.machine); ff == 0 {
					t.Errorf("%s never took the fast path", spec.Name)
				}
			})
		}
	}
}

// TestDifferentialSuperblockSharedBodies runs two copies of each paper
// workload as jobs of one workloads.BuildMix program on one VM, fast
// path on and off. On each compiler the copies' methods share lowered
// bodies and blocks, and a shared block bills the running frame's own
// method: the two runs must agree on everything sameMachine compares and
// on every job's checksum, cycles and output, and each copy of a method
// that shares a body must have nonzero counters of its own.
func TestDifferentialSuperblockSharedBodies(t *testing.T) {
	const threads, copies = 2, 2
	specs := workloads.All()
	var entries []workloads.MixEntry
	for range copies {
		for _, spec := range specs {
			entries = append(entries, workloads.MixEntry{Spec: spec, Threads: threads, Scale: 1})
		}
	}
	run := func(disable bool) (*vm.VM, *classfile.Program, []*vm.Job) {
		prog, err := workloads.BuildMix(entries)
		if err != nil {
			t.Fatal(err)
		}
		cfg := vm.DefaultConfig()
		cfg.Machine.MainMemory = 64 << 20
		cfg.HeapBytes = 16 << 20
		cfg.DisableSuperblocks = disable
		machine, err := vm.New(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		jobs := make([]*vm.Job, len(entries))
		for i, e := range entries {
			if jobs[i], _, err = machine.Submit(vm.JobSpec{Name: e.Spec.Name, Class: e.MainClassOf(i), Method: "main"}); err != nil {
				t.Fatal(err)
			}
		}
		if err := machine.Drain(); err != nil {
			t.Fatal(err)
		}
		return machine, prog, jobs
	}
	fast, prog, fjobs := run(false)
	slow, _, sjobs := run(true)
	for i, e := range entries {
		f, s := fjobs[i], sjobs[i]
		if err := errors.Join(f.Err(), s.Err()); err != nil {
			t.Fatalf("job %d (%s): %v", i, e.Spec.Name, err)
		}
		fsum, ssum := int32(uint32(f.Root().Result)), int32(uint32(s.Root().Result))
		if want := e.Spec.Reference(threads, 1); fsum != want || ssum != want {
			t.Errorf("job %d (%s): checksums fast=%d slow=%d reference=%d", i, e.Spec.Name, fsum, ssum, want)
		}
		if f.Cycles() != s.Cycles() || f.Output() != s.Output() {
			t.Errorf("job %d (%s): cycles fast=%d slow=%d, output fast=%q slow=%q",
				i, e.Spec.Name, f.Cycles(), s.Cycles(), f.Output(), s.Output())
		}
	}
	if sameMachine(t, fast, slow) == 0 {
		t.Error("the mix never took the fast path")
	}

	// Pair each method of the first copy with its twin in the second:
	// the same builder made both, so their classes list them alike.
	shared := 0
	for i := range specs {
		for _, cls := range prog.Classes() {
			name, ok := strings.CutPrefix(cls.Name, workloads.JobPrefix(i))
			if !ok {
				continue
			}
			twin := prog.Lookup(workloads.JobPrefix(i+len(specs)) + name)
			for k, m := range cls.Methods {
				tm := twin.Methods[k]
				for _, kind := range isa.CoreKinds() {
					c := fast.Compiler(kind)
					if c == nil {
						continue
					}
					cm, tcm := c.Lookup(m), c.Lookup(tm)
					if cm == nil || tcm == nil || &cm.Code[0] != &tcm.Code[0] {
						continue
					}
					shared++
					mc, tc := fast.Ledger()[m.ID], fast.Ledger()[tm.ID]
					if mc == nil || tc == nil || mc == tc || mc.Invokes == 0 || tc.Invokes == 0 ||
						mc.Cycles == ([isa.NumClasses]uint64{}) || tc.Cycles == ([isa.NumClasses]uint64{}) {
						t.Errorf("%s and %s [%v] share a body but not counters of their own: %+v, %+v",
							m.Sig(), tm.Sig(), kind, mc, tc)
					}
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no two copies of a method share a body; the check is vacuous")
	}
	t.Logf("%d method copies share a body with their twin", shared)
}

// TestBlocksLoweredAtVerifierDepth runs the six workloads (the kernels
// in their data-parallel form) on a three-kind machine and on the VPUs
// beside a PPE, and checks every block any kind lowered: a block addresses the frame's slots for the
// operand-stack depth it was lowered at, so that depth must be the one
// the verifier derives at the block's entry — the depth of every frame
// that reaches it. A block is entered at a nonempty stack only at a jump
// target or past a memory instruction inside an expression, which not
// every workload has, so the ternary guest joinProg holds the check to
// at least one such block.
func TestBlocksLoweredAtVerifierDepth(t *testing.T) {
	specs := append(workloads.All(), workloads.Kernels()...)
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			blocks, deep := 0, 0
			// The second machine sends every kernel launch to the VPUs,
			// whose lowering differs from the SPEs' the first one picks.
			for _, shape := range []string{"ppe:1,spe:4,vpu:2", "ppe:1,vpu:2"} {
				prog, machine := runSpecOn(t, spec, shape)
				b, d := loweredAtVerifierDepth(t, prog, machine, shape)
				blocks, deep = blocks+b, deep+d
			}
			if blocks == 0 {
				t.Fatal("no block was lowered; the check is vacuous")
			}
			t.Logf("%d lowered blocks checked, %d entered with a nonempty operand stack", blocks, deep)
		})
	}
	t.Run("join", func(t *testing.T) {
		const shape = "ppe:1,spe:4,vpu:2"
		prog := joinProg()
		machine := runProgOn(t, prog, "Join", "join", shape)
		blocks, deep := loweredAtVerifierDepth(t, prog, machine, shape)
		if deep == 0 {
			t.Fatalf("none of %d blocks was entered with a nonempty operand stack; the check is vacuous", blocks)
		}
		t.Logf("%d lowered blocks checked, %d entered with a nonempty operand stack", blocks, deep)
	})
}

// TestLoweringIsLinearInCode runs the six workloads on the PS3 shape
// and on a three-kind machine and holds the blocks of the bodies each
// compiler holds to those bodies' length: the instructions every block
// covers, summed over the distinct bodies, at most 1.25 times their
// length. A block starts only where control enters a run, and one past
// a memory op ends where the next such tile starts, so the blocks of one
// run overlap little; when every PC a quantum stopped on started a block
// of its own, the ratio was 1.3 to 2.4, and with every entry's block
// running to the end of its run, 1.27 on compress.
func TestLoweringIsLinearInCode(t *testing.T) {
	specs := append(workloads.All(), workloads.Kernels()...)
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			covered, code := 0, 0
			for _, shape := range []string{"ppe:1,spe:6", "ppe:1,spe:4,vpu:2"} {
				prog, machine := runSpecOn(t, spec, shape)
				for _, kind := range isa.CoreKinds() {
					c := machine.Compiler(kind)
					if c == nil {
						continue
					}
					seen := make(map[*isa.Instr]bool)
					for _, m := range prog.Methods() {
						cm := c.Lookup(m)
						if cm == nil || seen[&cm.Code[0]] {
							continue
						}
						seen[&cm.Code[0]] = true
						code += len(cm.Code)
						for p := range cm.Code {
							if b := cm.Block(p); b != nil {
								covered += int(b.Len)
							}
						}
					}
				}
			}
			ratio := float64(covered) / float64(code)
			t.Logf("blocks cover %d instructions of %d compiled: %.2fx", covered, code, ratio)
			if code == 0 || ratio > 1.25 {
				t.Errorf("blocks cover %d instructions of %d compiled (%.2fx), want <= 1.25x", covered, code, ratio)
			}
		})
	}
}

// loweredAtVerifierDepth checks every block machine lowered for a method
// of prog against the verifier's depth at its entry, and counts the
// blocks and those lowered at a nonempty stack.
func loweredAtVerifierDepth(t *testing.T, prog *classfile.Program, machine *vm.VM, shape string) (blocks, deep int) {
	t.Helper()
	for _, kind := range isa.CoreKinds() {
		c := machine.Compiler(kind)
		if c == nil {
			continue
		}
		for _, cls := range prog.Classes() {
			for _, m := range cls.Methods {
				cm := c.Lookup(m)
				if cm == nil {
					continue
				}
				for p := range cm.Code {
					b := cm.Block(p)
					if b == nil {
						continue
					}
					blocks++
					if b.EntrySP > 0 {
						deep++
					}
					stack, _, err := classfile.KindsAt(m, p)
					if err != nil || int(b.EntrySP) != len(stack) {
						t.Fatalf("%s on %s [%v] pc %d: block lowered at depth %d, verifier depth %d (%v)",
							m.Sig(), shape, kind, p, b.EntrySP, len(stack), err)
					}
				}
			}
		}
	}
	return blocks, deep
}

// joinProg is s += mix(i%2 == 0 ? a[i] : b[i], i+1) over 64 iterations:
// the join of the ternary is the goto's target with s and the chosen
// element on the stack, and the block there pushes i+1 and ends at the
// call, so it lowers at depth 2.
func joinProg() *classfile.Program {
	p := classfile.NewProgram()
	vm.Stdlib(p)
	c := p.NewClass("Join", nil)
	mix := c.NewMethod("mix", classfile.FlagStatic, classfile.Int, classfile.Int, classfile.Int)
	{
		a := mix.Asm()
		a.LoadI(0)
		a.LoadI(1)
		a.XorI()
		a.Ret()
		a.MustBuild()
	}
	a := c.NewMethod("join", classfile.FlagStatic, classfile.Int).Asm()
	const n = 64
	for local := range 2 { // a and b, locals 0 and 1
		a.ConstI(n)
		a.NewArray(classfile.ElemInt)
		a.StoreRef(local)
	}
	loop, odd, join, done := a.NewLabel(), a.NewLabel(), a.NewLabel(), a.NewLabel()
	a.ConstI(0)
	a.StoreI(2) // i
	a.ConstI(0)
	a.StoreI(3) // s
	a.Bind(loop)
	a.LoadI(2)
	a.ConstI(n)
	a.IfICmpGE(done)
	a.LoadI(3)
	a.LoadI(2)
	a.ConstI(1)
	a.AndI()
	a.IfNE(odd)
	a.LoadRef(0)
	a.LoadI(2)
	a.ALoad(classfile.ElemInt)
	a.Goto(join)
	a.Bind(odd)
	a.LoadRef(1)
	a.LoadI(2)
	a.ALoad(classfile.ElemInt)
	a.Bind(join)
	a.LoadI(2)
	a.ConstI(1)
	a.AddI()
	a.InvokeStatic(mix)
	a.AddI()
	a.StoreI(3)
	a.Inc(2, 1)
	a.Goto(loop)
	a.Bind(done)
	a.LoadI(3)
	a.Ret()
	a.MustBuild()
	return p
}

// runSpecOn runs spec's main at 4 threads and scale 1 on the machine
// shape to completion, and returns its program and machine.
func runSpecOn(t *testing.T, spec workloads.Spec, shape string) (*classfile.Program, *vm.VM) {
	t.Helper()
	prog, err := spec.Build(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return prog, runProgOn(t, prog, spec.MainClass, "main", shape)
}

// runProgOn runs the static method class.method of prog as the one job
// on the machine shape to completion, and returns the machine.
func runProgOn(t *testing.T, prog *classfile.Program, class, method, shape string) *vm.VM {
	t.Helper()
	topo, err := cell.ParseTopology(shape)
	if err != nil {
		t.Fatal(err)
	}
	cfg := vm.DefaultConfig()
	cfg.Machine.MainMemory = 32 << 20
	cfg.HeapBytes = 8 << 20
	cfg.Machine.Topology = topo
	machine, err := vm.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	job, _, err := machine.Submit(vm.JobSpec{Name: class, Class: class, Method: method})
	if err != nil {
		t.Fatal(err)
	}
	if err := machine.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := job.Err(); err != nil {
		t.Fatal(err)
	}
	return machine
}

// sameMachine requires two runs of one program, fast path on (fast) and
// off (slow), to agree on everything observable — the machine clock, each
// core's counters and stat line, the branch predictors and every
// method's ledger counters — and returns the instructions fast
// fast-forwarded.
func sameMachine(t *testing.T, fast, slow *vm.VM) (ff uint64) {
	t.Helper()
	if f, s := fast.Machine.MaxClock(), slow.Machine.MaxClock(); f != s {
		t.Errorf("machine clock: fast=%d slow=%d", f, s)
	}

	fcores, scores := fast.Machine.Cores(), slow.Machine.Cores()
	for i := range fcores {
		fs, ss := fcores[i].Stats, scores[i].Stats
		if fs.Cycles != ss.Cycles {
			t.Errorf("core %d: per-class cycles diverge:\nfast %v\nslow %v", i, fs.Cycles, ss.Cycles)
		}
		if fs.Instrs != ss.Instrs || fs.Idle != ss.Idle {
			t.Errorf("core %d: instrs/idle fast=%d/%d slow=%d/%d",
				i, fs.Instrs, fs.Idle, ss.Instrs, ss.Idle)
		}
		// The rendered stat line must be byte-identical — the
		// fast-forward counters are deliberately not part of it.
		if fstr, sstr := fs.String(), ss.String(); fstr != sstr {
			t.Errorf("core %d: stat line diverges:\nfast %s\nslow %s", i, fstr, sstr)
		}
		if fbp, sbp := fcores[i].BP, scores[i].BP; fbp != nil &&
			(fbp.Predictions != sbp.Predictions || fbp.Mispredicts != sbp.Mispredicts) {
			t.Errorf("core %d: predictions/mispredicts fast=%d/%d slow=%d/%d", i,
				fbp.Predictions, fbp.Mispredicts, sbp.Predictions, sbp.Mispredicts)
		}
		ff += fs.FastForwardedInstrs
	}
	// Each method's class vector and invocation count, which the
	// monitoring policy and the report read.
	fm, sm := fast.Ledger(), slow.Ledger()
	if len(fm) != len(sm) {
		t.Errorf("monitored methods: fast=%d slow=%d", len(fm), len(sm))
	}
	for id := range min(len(fm), len(sm)) {
		if (fm[id] == nil) != (sm[id] == nil) || fm[id] != nil && *fm[id] != *sm[id] {
			t.Errorf("method %d: ledger counters fast=%+v slow=%+v", id, fm[id], sm[id])
		}
	}
	return ff
}
