package classfile_test

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"herajvm/internal/classfile"
	"herajvm/internal/workloads"
)

// serveMix is the benchmark's serve mix (benchmark/workloads.go), n
// entries of it: the paper's programs interleaved with kernel launches.
func serveMix(t testing.TB, n int) []workloads.MixEntry {
	parts := []struct {
		name  string
		scale int
	}{{"compress", 1}, {"matmul", 1}, {"mpegaudio", 2}, {"nbody", 1}, {"mandelbrot", 1}, {"kmeans", 1}}
	entries := make([]workloads.MixEntry, n)
	for i := range entries {
		spec, err := workloads.ByName(parts[i%len(parts)].name)
		if err != nil {
			t.Fatal(err)
		}
		entries[i] = workloads.MixEntry{Spec: spec, Threads: 2, Scale: parts[i%len(parts)].scale}
	}
	return entries
}

// paperAndKernelSpecs is every workload program the repo builds.
func paperAndKernelSpecs() []workloads.Spec {
	specs := workloads.All()
	for _, k := range workloads.Kernels() {
		specs = append(specs, k.AsSpec(true))
	}
	return specs
}

func disassembly(p *classfile.Program) string {
	var b strings.Builder
	for _, c := range p.Classes() {
		for _, m := range c.Methods {
			b.WriteString(m.Disassemble())
		}
	}
	return b.String()
}

func instructions(p *classfile.Program) (n int) {
	for _, c := range p.Classes() {
		for _, m := range c.Methods {
			n += len(m.Code)
		}
	}
	return n
}

// TestVerifierMatchesReference: on every method the repo's builders
// produce, the leader-based verifier and the per-pc reference agree on
// MaxStack, on which pcs are reached and on the kinds at each.
func TestVerifierMatchesReference(t *testing.T) {
	var progs []*classfile.Program
	for _, spec := range paperAndKernelSpecs() {
		p, err := spec.Build(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	mix, err := workloads.BuildMix(serveMix(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, mix)
	methods := 0
	for _, p := range progs {
		if err := p.Resolve(); err != nil {
			t.Fatal(err)
		}
		for _, m := range p.Methods() {
			if m.Code == nil {
				continue
			}
			methods++
			maxStack, maxLocals := m.MaxStack, m.MaxLocals
			classfile.CheckAgainstReference(t, m)
			if m.MaxStack != maxStack || m.MaxLocals != maxLocals {
				t.Errorf("%s: the comparison wrote the method", m.Sig())
			}
		}
	}
	if methods < 300 {
		t.Errorf("compared %d methods; the programs hold more than 300 bodies", methods)
	}
}

// TestDisassemblyGolden: the listing of every workload method is what
// the 128-byte, label-carrying BC printed (testdata/disasm_golden.txt:
// name, sha256 of the program's listing, line count — captured at the
// commit before the layout changed).
func TestDisassemblyGolden(t *testing.T) {
	f, err := os.Open("testdata/disasm_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		name, rest, _ := strings.Cut(sc.Text(), " ")
		want[name] = rest
	}
	for _, spec := range paperAndKernelSpecs() {
		p, err := spec.Build(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Resolve(); err != nil {
			t.Fatal(err)
		}
		text := disassembly(p)
		got := fmt.Sprintf("%x %d", sha256.Sum256([]byte(text)), strings.Count(text, "\n"))
		if got != want[spec.Name] {
			t.Errorf("%s: listing is %s, golden %s", spec.Name, got, want[spec.Name])
		}
	}
}

// TestBuildBytesPerInstruction holds the front end to allocating in
// proportion to what it keeps: assembling the serve mix may allocate 72
// bytes per instruction kept (40 of them are the instruction; it was 467
// when bodies grew by append-doubling 128-byte elements), resolving it
// 48 (it was 140 with a state cloned per instruction).
func TestBuildBytesPerInstruction(t *testing.T) {
	entries := serveMix(t, 12)
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var p *classfile.Program
	build := allocated(func() {
		var err error
		if p, err = workloads.BuildMix(entries); err != nil {
			t.Fatal(err)
		}
	})
	resolve := allocated(func() {
		if err := p.Resolve(); err != nil {
			t.Fatal(err)
		}
	})
	n := uint64(instructions(p))
	t.Logf("%d instructions kept: BuildMix %d B each, Resolve %d B each", n, build/n, resolve/n)
	if build/n > 72 {
		t.Errorf("BuildMix allocates %d B per kept instruction, budget 72", build/n)
	}
	if resolve/n > 48 {
		t.Errorf("Resolve allocates %d B per kept instruction, budget 48", resolve/n)
	}
}

// TestAsmSpareNotShared: the assembly buffer belongs to one Program, so
// two programs built at once (run under -race) come out as a serial
// build does, and what a finished body hands back names nothing.
func TestAsmSpareNotShared(t *testing.T) {
	entries := serveMix(t, 6)
	serial, err := workloads.BuildMix(entries)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.Resolve(); err != nil {
		t.Fatal(err)
	}
	want := disassembly(serial)

	var wg sync.WaitGroup
	got := make([]string, 2)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := workloads.BuildMix(entries)
			if err == nil {
				err = p.Resolve()
			}
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = disassembly(p)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("concurrent build %d differs from the serial build", i)
		}
	}

	// An Asm opened while another holds the spare assembles in a buffer
	// of its own; both bodies come out whole whichever builds first.
	p := classfile.NewProgram()
	c := p.NewClass("Two", nil)
	f := c.NewStaticField("f", classfile.Ref)
	outer := c.NewMethod("outer", classfile.FlagStatic, classfile.Int)
	inner := c.NewMethod("inner", classfile.FlagStatic, classfile.Int)
	a, b := outer.Asm(), inner.Asm()
	la := a.NewLabel()
	a.GetStatic(f).IfNull(la).ConstI(1).Ret()
	b.ConstI(7)
	a.Bind(la).ConstI(2).Ret()
	b.Ret()
	a.MustBuild()
	for i, bc := range p.Spare() {
		if bc != (classfile.BC{}) {
			t.Errorf("spare[%d] still holds %+v after Build", i, bc)
		}
	}
	b.MustBuild()
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	if got := outer.Disassemble(); !strings.Contains(got, "ifnull         @4") || len(outer.Code) != 6 {
		t.Errorf("outer assembled wrong:\n%s", got)
	}
	if len(inner.Code) != 2 || inner.Code[0].A != 7 {
		t.Errorf("inner assembled wrong:\n%s", inner.Disassemble())
	}
	if len(p.Spare()) != 0 {
		t.Error("Resolve kept the spare")
	}
}
