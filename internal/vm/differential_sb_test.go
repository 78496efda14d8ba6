// Superblock differential harness: every workload runs twice — fast
// path enabled (the default) vs Config.DisableSuperblocks — and the two
// machines must agree on everything observable: checksums, final clocks,
// per-core per-class cycle counters, retired instructions, idle time,
// branch-predictor counters, per-job cycles, the rendered per-core stat
// strings and every method's monitor counters. This is the enforcement
// of the memoization contract: fast-forwarding a block is an accounting
// shortcut, never a semantics change.
//
// The file is an external test package because the workloads package
// imports vm; the in-package differential tests (random straight-line
// programs vs a Go mirror) live in differential_test.go.
package vm_test

import (
	"reflect"
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
				if f, s := fast.machine.Machine.MaxClock(), slow.machine.Machine.MaxClock(); f != s {
					t.Errorf("machine clock: fast=%d slow=%d", f, s)
				}

				var ff uint64
				fcores, scores := fast.machine.Machine.Cores(), slow.machine.Machine.Cores()
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
				if ff == 0 {
					t.Errorf("%s never took the fast path", spec.Name)
				}
				// Each method's class vector and invocation count, which the
				// monitoring policy and the report read.
				fm, sm := fast.machine.Monitor.ByMethod, slow.machine.Monitor.ByMethod
				if !reflect.DeepEqual(fm, sm) {
					for id, c := range fm {
						if s := sm[id]; s == nil || *s != *c {
							t.Errorf("method %d: monitor counters fast=%+v slow=%+v", id, *c, s)
						}
					}
					if len(fm) != len(sm) {
						t.Errorf("monitored methods: fast=%d slow=%d", len(fm), len(sm))
					}
				}
			})
		}
	}
}

// TestBlocksLoweredAtVerifierDepth runs the six workloads (the kernels
// in their data-parallel form) on a three-kind machine and checks every
// block any kind lowered: a block addresses the frame's slots for the
// operand-stack depth it was lowered at, so that depth must be the one
// the verifier derives at the block's entry — the depth of every frame
// that reaches it.
func TestBlocksLoweredAtVerifierDepth(t *testing.T) {
	specs := workloads.All()
	for _, k := range workloads.Kernels() {
		specs = append(specs, k.AsSpec(true))
	}
	topo, err := cell.ParseTopology("ppe:1,spe:4,vpu:2")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			prog, err := spec.Build(4, 1)
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
			blocks, deep := 0, 0
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
							b := cm.Lowered(p)
							if b == nil {
								continue
							}
							blocks++
							if b.EntrySP > 0 {
								deep++
							}
							stack, _, err := classfile.KindsAt(m, p)
							if err != nil || int(b.EntrySP) != len(stack) {
								t.Fatalf("%s [%v] pc %d: block lowered at depth %d, verifier depth %d (%v)",
									m.Sig(), kind, p, b.EntrySP, len(stack), err)
							}
						}
					}
				}
			}
			if deep == 0 {
				t.Fatal("no block was entered with a nonempty operand stack; the check is vacuous")
			}
			t.Logf("%d lowered blocks checked, %d entered with a nonempty operand stack", blocks, deep)
		})
	}
}
