// Superblock differential harness: every workload runs twice — fast
// path enabled (the default) vs Config.DisableSuperblocks — and the two
// machines must agree on everything observable: checksums, final clocks,
// per-core per-class cycle counters, retired instructions, idle time,
// per-job cycles and the rendered per-core stat strings. This is the
// enforcement of the memoization contract: fast-forwarding a block is an
// accounting shortcut, never a semantics change.
//
// The file is an external test package because the workloads package
// imports vm; the in-package differential tests (random straight-line
// programs vs a Go mirror) live in differential_test.go.
package vm_test

import (
	"testing"

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

func TestDifferentialSuperblockWorkloads(t *testing.T) {
	const threads = 4
	for _, spec := range workloads.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
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
				ff += fs.FastForwardedInstrs
			}
			if ff == 0 {
				t.Errorf("%s never took the fast path", spec.Name)
			}
		})
	}
}
