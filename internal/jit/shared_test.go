package jit_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
	"herajvm/internal/jit"
	"herajvm/internal/vm"
	"herajvm/internal/workloads"
)

// bootJob boots a VM for prog on the PS3 shape and submits class.main as
// its one job.
func bootJob(prog *classfile.Program, class string) (*vm.VM, *vm.Job, error) {
	cfg := vm.DefaultConfig()
	cfg.Machine.MainMemory = 32 << 20
	cfg.HeapBytes = 8 << 20
	cfg.Machine.Topology = cell.PS3Topology(6)
	machine, err := vm.New(cfg, prog)
	if err != nil {
		return nil, nil, err
	}
	job, _, err := machine.Submit(vm.JobSpec{Name: class, Class: class, Method: "main"})
	return machine, job, err
}

// finish drains machine and holds job's result to want.
func finish(machine *vm.VM, job *vm.Job, want int32) error {
	if err := machine.Drain(); err != nil {
		return err
	}
	if err := job.Err(); err != nil {
		return err
	}
	if got := int32(uint32(job.Root().Result)); got != want {
		return fmt.Errorf("checksum %d, reference %d", got, want)
	}
	return nil
}

// runSpec builds spec afresh and runs it to its reference checksum.
func runSpec(spec workloads.Spec) (*classfile.Program, *vm.VM, error) {
	prog, err := spec.Build(4, 1)
	if err != nil {
		return nil, nil, err
	}
	machine, job, err := bootJob(prog, spec.MainClass)
	if err == nil {
		err = finish(machine, job, spec.Reference(4, 1))
	}
	return prog, machine, err
}

// sameBody reports whether a and b read one body: the same Code slice
// and, at every index, the same block.
func sameBody(a, b *jit.CompiledMethod) bool {
	if &a.Code[0] != &b.Code[0] {
		return false
	}
	for p := range a.Code {
		if a.Block(p) != b.Block(p) {
			return false
		}
	}
	return true
}

// TestSharedBodiesAcrossVMs boots two VMs from two separate Builds of
// each paper workload: every method both compiled for a kind reads one
// body, its Code and its blocks. Within one serving mix, where per-job
// statics give the copies of a method different operands, two copies
// share a body exactly when their Code is equal.
func TestSharedBodiesAcrossVMs(t *testing.T) {
	jit.ResetBodies() // so no drop falls between the two boots
	shared := 0
	for _, spec := range workloads.All() {
		p1, m1, err := runSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		p2, m2, err := runSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range isa.CoreKinds() {
			c1, c2 := m1.Compiler(kind), m2.Compiler(kind)
			if c1 == nil {
				continue
			}
			for i, m := range p1.Methods() {
				a, b := c1.Lookup(m), c2.Lookup(p2.MethodByID(i))
				if a == nil || b == nil {
					continue
				}
				if !sameBody(a, b) {
					t.Errorf("%s [%v]: two boots of %s do not share its body", m.Sig(), kind, spec.Name)
				}
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("no method was compiled on both VMs; the check is vacuous")
	}

	entries := []workloads.MixEntry{{Spec: workloads.Compress(), Threads: 2, Scale: 1}, {Spec: workloads.Compress(), Threads: 2, Scale: 1}}
	prog, err := workloads.BuildMix(entries)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Resolve(); err != nil {
		t.Fatal(err)
	}
	c := newCompiler(isa.SPE)
	var same, own int
	for _, cls := range prog.Classes() {
		name, ok := strings.CutPrefix(cls.Name, workloads.JobPrefix(0))
		if !ok {
			continue
		}
		for i, m := range cls.Methods {
			if m.Code == nil {
				continue
			}
			twin := prog.Lookup(workloads.JobPrefix(1) + name).Methods[i]
			a, err := c.Compile(m)
			if err != nil {
				t.Fatal(err)
			}
			b, err := c.Compile(twin)
			if err != nil {
				t.Fatal(err)
			}
			equal := slices.Equal(a.Code, b.Code)
			if sameBody(a, b) != equal {
				t.Errorf("%s: Code equal %v, body shared %v", m.Sig(), equal, !equal)
			}
			if equal {
				same++
			} else {
				own++
			}
		}
	}
	if same == 0 || own == 0 {
		t.Fatalf("%d copies share a body and %d have their own; the check is vacuous", same, own)
	}
	t.Logf("%d methods on two boots read one body; in a mix, %d copies share and %d do not", shared, same, own)
}

// TestSharedBodiesConcurrentRuns boots each paper workload on two VMs
// on two goroutines at once, from a cold body table, and requires both
// to reach the reference checksum. Under -race it shows a VM reads the
// bodies another publishes without a race.
func TestSharedBodiesConcurrentRuns(t *testing.T) {
	for _, spec := range workloads.All() {
		jit.ResetBodies()
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := runSpec(spec); err != nil {
					t.Errorf("%s: %v", spec.Name, err)
				}
			}()
		}
		wg.Wait()
	}
}

// TestSharedTableOverflow runs mpegaudio halfway, fills the body table
// past its bound with bodies of other methods, and requires the index
// to have been dropped — a fresh compiler no longer finds the bodies the
// VM holds — and the VM to run on to its checksum with them.
func TestSharedTableOverflow(t *testing.T) {
	spec := workloads.MPEGAudio()
	_, ref, err := runSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	half := ref.Machine.MaxClock() / 2

	jit.ResetBodies()
	prog, err := spec.Build(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	machine, job, err := bootJob(prog, spec.MainClass)
	if err != nil {
		t.Fatal(err)
	}
	if err := machine.RunUntil(half); err != nil {
		t.Fatal(err)
	}
	var held []*jit.CompiledMethod
	for _, m := range prog.Methods() {
		if cm := machine.Compiler(isa.SPE).Lookup(m); cm != nil {
			held = append(held, cm)
		}
	}
	if len(held) == 0 {
		t.Fatal("the VM compiled nothing for the SPE by half time; the check is vacuous")
	}

	flood := classfile.NewProgram()
	cls := flood.NewClass("Flood", nil)
	for i := range jit.MaxBodies {
		m := cls.NewMethod(fmt.Sprintf("f%d", i), classfile.FlagStatic, classfile.Int)
		m.Asm().ConstI(int32(i)).Ret().MustBuild()
	}
	if err := flood.Resolve(); err != nil {
		t.Fatal(err)
	}
	before := jit.TableBodies()
	c := newCompiler(isa.SPE)
	for _, m := range cls.Methods {
		if _, err := c.Compile(m); err != nil {
			t.Fatal(err)
		}
	}
	if n := jit.TableBodies(); n >= before+jit.MaxBodies {
		t.Fatalf("the table holds %d bodies after %d more on top of %d; want the index dropped", n, jit.MaxBodies, before)
	}
	fresh := newCompiler(isa.SPE)
	for _, cm := range held {
		again, err := fresh.Compile(cm.M)
		if err != nil {
			t.Fatal(err)
		}
		if &again.Code[0] == &cm.Code[0] {
			t.Fatalf("%s: a fresh compiler found a body the dropped index held", cm.M.Sig())
		}
	}
	if err := finish(machine, job, spec.Reference(4, 1)); err != nil {
		t.Fatal(err)
	}
}
