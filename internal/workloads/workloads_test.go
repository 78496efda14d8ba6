package workloads

import (
	"context"
	"errors"
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
	"herajvm/internal/vm"
)

func smallConfig(numSPEs int) vm.Config {
	cfg := vm.DefaultConfig()
	cfg.Machine.MainMemory = 32 << 20
	cfg.Machine.Topology = cell.PS3Topology(numSPEs)
	cfg.HeapBytes = 16 << 20
	cfg.CodeBytes = 2 << 20
	return cfg
}

// runWorkload builds and runs a workload, returning the checksum and VM.
func runWorkload(t *testing.T, s Spec, threads, scale, numSPEs int) (int32, *vm.VM) {
	return runWorkloadCfg(t, s, threads, scale, smallConfig(numSPEs))
}

// runEntry submits a static entry method as the machine's one job and
// waits for it, returning the root thread and the job's first trap.
func runEntry(v *vm.VM, class, method string) (*vm.Thread, error) {
	j, _, err := v.Submit(vm.JobSpec{Name: "main", Class: class, Method: method})
	if err != nil {
		return nil, err
	}
	_, err = j.Wait()
	return j.Root(), err
}

func runWorkloadCfg(t *testing.T, s Spec, threads, scale int, cfg vm.Config) (int32, *vm.VM) {
	t.Helper()
	p, err := s.Build(threads, scale)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := vm.New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	th, err := runEntry(machine, s.MainClass, "main")
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	return int32(uint32(th.Result)), machine
}

func TestWorkloadChecksumsMatchReferenceOnPPE(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			scale := 1
			if s.Name == "mandelbrot" {
				scale = 2
			}
			got, _ := runWorkload(t, s, 2, scale, 0) // no SPEs: pure PPE
			want := s.Reference(2, scale)
			if got != want {
				t.Errorf("PPE checksum = %d, want %d", got, want)
			}
		})
	}
}

func TestWorkloadChecksumsMatchReferenceOnSPEs(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			scale := 1
			if s.Name == "mandelbrot" {
				scale = 2
			}
			got, machine := runWorkload(t, s, 3, scale, 3)
			want := s.Reference(3, scale)
			if got != want {
				t.Errorf("SPE checksum = %d, want %d", got, want)
			}
			var speInstrs uint64
			for _, spe := range machine.Machine.CoresOf(isa.SPE) {
				speInstrs += spe.Stats.Instrs
			}
			if speInstrs == 0 {
				t.Error("workers never executed on SPEs")
			}
		})
	}
}

func TestChecksumIndependentOfSPECount(t *testing.T) {
	// Same program, same threads, different core counts: the checksum
	// must not change (transparency of placement).
	s := Mandelbrot()
	ref := s.Reference(4, 1)
	for _, spes := range []int{1, 2, 4} {
		got, _ := runWorkload(t, s, 4, 1, spes)
		if got != ref {
			t.Errorf("%d SPEs: checksum %d, want %d", spes, got, ref)
		}
	}
}

func TestWorkloadCharacters(t *testing.T) {
	// The three workloads must exhibit the paper's Figure 5/6/7 contrast:
	// mandelbrot FP-dominated; compress most main-memory-bound (worst
	// data-cache behaviour); mpegaudio the largest code footprint (worst
	// code-cache behaviour). Caches are measured at reduced sizes so the
	// sensitivity - not just cold misses - is visible, as in the paper's
	// sweeps.
	type profile struct {
		fpShare   float64
		memShare  float64
		codeChurn float64 // code-cache misses per executed instruction
		dataMiss  float64 // data-cache misses per executed instruction
	}
	profiles := map[string]profile{}
	for _, s := range All() {
		scale := s.DefaultScale
		cfg := smallConfig(1)
		cfg.DataCache.Size = 48 << 10
		cfg.CodeCache.Size = 24 << 10
		_, machine := runWorkloadCfg(t, s, 1, scale, cfg)
		spe := machine.Machine.CoresOf(isa.SPE)[0]
		var busy uint64
		for _, c := range spe.Stats.Cycles {
			busy += c
		}
		profiles[s.Name] = profile{
			fpShare:   float64(spe.Stats.Cycles[isa.ClassFloat]) / float64(busy),
			memShare:  float64(spe.Stats.Cycles[isa.ClassMainMem]) / float64(busy),
			codeChurn: float64(spe.Stats.CodeMisses) / float64(spe.Stats.Instrs),
			dataMiss:  float64(spe.Stats.DataMisses) / float64(spe.Stats.Instrs),
		}
	}
	mb, cp, mp := profiles["mandelbrot"], profiles["compress"], profiles["mpegaudio"]
	if !(mb.fpShare > cp.fpShare && mb.fpShare > mp.fpShare) {
		t.Errorf("mandelbrot should have the largest FP share: mb=%.3f cp=%.3f mp=%.3f",
			mb.fpShare, cp.fpShare, mp.fpShare)
	}
	if !(cp.memShare > mb.memShare && cp.memShare > mp.memShare) {
		t.Errorf("compress should have the largest main-memory share: cp=%.3f mb=%.3f mp=%.3f",
			cp.memShare, mb.memShare, mp.memShare)
	}
	if !(cp.dataMiss > mb.dataMiss && cp.dataMiss > mp.dataMiss) {
		t.Errorf("compress should miss the data cache most often: cp=%.5f mb=%.5f mp=%.5f",
			cp.dataMiss, mb.dataMiss, mp.dataMiss)
	}
	if !(mp.codeChurn > cp.codeChurn && mp.codeChurn > mb.codeChurn) {
		t.Errorf("mpegaudio should have the worst code-cache churn: mp=%.6f cp=%.6f mb=%.6f",
			mp.codeChurn, cp.codeChurn, mb.codeChurn)
	}
}

func TestReferenceDeterminism(t *testing.T) {
	for _, s := range All() {
		a := s.Reference(6, 2)
		b := s.Reference(6, 2)
		if a != b {
			t.Errorf("%s: reference not deterministic", s.Name)
		}
		if s.Reference(1, 2) == s.Reference(6, 2) && s.Name == "mandelbrot" {
			// Work is partitioned by thread; totals still equal. (This is
			// the design: checksum independent of thread count.)
			continue
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("compress"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("expected error for unknown workload")
	}
}

// TestWorkloadsUnderGCPressure runs the six workloads (the kernels in
// both variants) in the smallest heap they complete in, where every allocation that can collect does, with a
// frame's reference map taken from the verifier at whatever PC the
// collection finds it — a frame the verifier cannot describe panics the
// walk rather than mis-root. The checksum must be the reference's, and
// the simulated cycle count the same with the superblock fast path on
// and off. compress and mpegaudio leave garbage and must collect.
func TestWorkloadsUnderGCPressure(t *testing.T) {
	specs := All()
	for _, k := range Kernels() {
		specs = append(specs, k, scalarOf(k))
	}
	const scale = 1
	for _, s := range specs {
		// compress allocates once per worker, so it leaves garbage only
		// when there are more workers than its six segments: the spare
		// ones die at once, buffers and all.
		threads := 2
		if s.Name == "compress" {
			threads = 8
		}
		p, err := s.Build(threads, scale)
		if err != nil {
			t.Fatal(err)
		}
		want := s.Reference(threads, scale)
		// One subtest per legacy scheduler name (vm.Config.Scheduler);
		// each boots the one scheduler, so the three replay one run.
		for _, sched := range []string{"calendar", "steal", "migrate"} {
			t.Run(s.MainClass+"/"+sched, func(t *testing.T) {
				// run returns the checksum, the machine and whether the
				// heap was too small (a thread died of OutOfMemoryError).
				run := func(heap uint32, stepped bool) (int32, *vm.VM, bool) {
					cfg := smallConfig(3)
					cfg.Scheduler, cfg.HeapBytes, cfg.DisableSuperblocks = sched, heap, stepped
					machine, err := vm.New(cfg, p)
					if err != nil {
						t.Fatal(err)
					}
					th, err := runEntry(machine, s.MainClass, "main")
					var trap *vm.TrapError
					if errors.As(err, &trap) && trap.Kind == "OutOfMemoryError" {
						return 0, nil, true
					}
					if err != nil {
						t.Fatalf("heap %d KB: %v", heap>>10, err)
					}
					return int32(uint32(th.Result)), machine, false
				}
				// The smallest heap, to 4 KB: double until it fits, then
				// bisect between the last size that did not and that one.
				// got and fast are the last run that fit — always hi's.
				var got int32
				var fast *vm.VM
				fits := func(heap uint32) bool {
					g, m, oom := run(heap, false)
					if !oom {
						got, fast = g, m
					}
					return !oom
				}
				lo, hi := uint32(0), uint32(64<<10)
				for !fits(hi) {
					if lo, hi = hi, hi*2; hi > 16<<20 {
						t.Fatal("does not complete in 16 MB")
					}
				}
				for hi-lo > 4<<10 {
					if mid := lo + (hi-lo)/2; fits(mid) {
						hi = mid
					} else {
						lo = mid
					}
				}
				if got != want {
					t.Errorf("heap %d KB: checksum %d, want %d", hi>>10, got, want)
				}
				if fast.GCCount == 0 && (s.Name == "compress" || s.Name == "mpegaudio") {
					t.Errorf("heap %d KB: no collection ran; the test exercises nothing", hi>>10)
				}
				gotS, slow, oom := run(hi, true)
				if oom || gotS != want || slow.Machine.MaxClock() != fast.Machine.MaxClock() || slow.GCCount != fast.GCCount {
					t.Fatalf("heap %d KB, stepped: oom=%v checksum %d (want %d); replayed: %d cycles, %d collections",
						hi>>10, oom, gotS, want, fast.Machine.MaxClock(), fast.GCCount)
				}
				t.Logf("heap %d KB: %d collections, %d cycles", hi>>10, fast.GCCount, fast.Machine.MaxClock())
			})
		}
	}
}

// TestFreezeDropsDeadLocal: the harness main's local 2 holds the last
// Worker it created, and by the join loop no path can read it again —
// the verifier types it Void there (the loop that wrote it was entered
// with it unwritten). A freeze with main parked in that loop carries the
// local zero, not a source-machine address, and the job finishes with
// the reference checksum on a machine of another shape.
func TestFreezeDropsDeadLocal(t *testing.T) {
	s := Compress()
	const threads, scale = 2, 1
	p, err := s.Build(threads, scale)
	if err != nil {
		t.Fatal(err)
	}
	control, _ := runWorkload(t, s, threads, scale, 3)
	src, err := vm.New(smallConfig(3), p)
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := src.Submit(vm.JobSpec{Class: s.MainClass, Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	// Drive until main is blocked in a join with a worker still running.
	main := j.Root()
	for main.State != vm.StateBlocked && !j.Done() {
		if err := src.RunUntil(src.Machine.MaxClock() + 10_000); err != nil {
			t.Fatal(err)
		}
	}
	if j.Done() {
		t.Fatal("the job finished before main blocked in a join")
	}
	f := main.Frames[0]
	if _, locals, err := classfile.KindsAt(f.CM.M, f.PC); err != nil || locals[2] != classfile.Void || f.Locals[2] == 0 {
		t.Fatalf("main at pc %d: local 2 = %#x typed %v (%v); the test expects a dead address", f.PC, f.Locals[2], locals, err)
	}
	img, err := src.Freeze(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if fr := img.Threads[0].Frames[0]; fr.Locals[2] != 0 || fr.Locals[0] == 0 || fr.Locals[0] > uint64(len(img.Objects)) {
		t.Errorf("image of main: locals %#x; local 2 must go out zero, local 0 as an image ID in [1, %d]", fr.Locals, len(img.Objects))
	}
	if img, err = vm.DecodeJobImage(vm.EncodeJobImage(img)); err != nil {
		t.Fatal(err)
	}
	dst, err := vm.New(smallConfig(0), p) // PPE-only
	if err != nil {
		t.Fatal(err)
	}
	dj, err := dst.Rehydrate(img, 0, vm.JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dj.Wait(); err != nil {
		t.Fatal(err)
	}
	if got, want := int32(uint32(dj.Root().Result)), s.Reference(threads, scale); got != want || got != control {
		t.Errorf("checksum after the hand-off = %d, want %d (control run %d)", got, want, control)
	}
}
