// On-demand lowering against the eager reference, over real programs.
// An external test package because workloads imports vm, which imports
// jit.
package jit_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"herajvm/internal/classfile"
	"herajvm/internal/isa"
	"herajvm/internal/jit"
	"herajvm/internal/mem"
	"herajvm/internal/workloads"
)

// workloadMethods returns every compilable method of every workload.
func workloadMethods(t testing.TB) []*classfile.Method {
	t.Helper()
	var methods []*classfile.Method
	for _, spec := range workloads.All() {
		prog, err := spec.Build(4, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := prog.Resolve(); err != nil {
			t.Fatal(err)
		}
		for _, c := range prog.Classes() {
			for _, m := range c.Methods {
				if !m.IsNative() && !m.IsAbstract() && m.Code != nil {
					methods = append(methods, m)
				}
			}
		}
	}
	return methods
}

// stackDepths returns, per method, the verifier's operand-stack depth
// at each index: the depth of every frame that probes Block there (0
// where no path reaches the index).
func stackDepths(methods []*classfile.Method) map[*classfile.Method][]int {
	depths := make(map[*classfile.Method][]int, len(methods))
	for _, m := range methods {
		d := make([]int, len(m.Code))
		for p := range d {
			stack, _, _ := classfile.KindsAt(m, p)
			d[p] = len(stack)
		}
		depths[m] = d
	}
	return depths
}

// newCompiler returns a compiler with a main memory and code region of
// its own. The first megabyte is written once up front, so
// an allocation measurement of Compile does not see main memory's host
// pages being mapped under the code it emits.
func newCompiler(kind isa.CoreKind) *jit.Compiler {
	main := mem.NewMain(64 << 20)
	for a := mem.Addr(0); a < 1<<20; a += 4096 {
		main.Write8(a, 0)
	}
	c := jit.NewCompiler(kind, main, mem.NewRegion("code", 4096, 32<<20))
	c.InternString = func(string) (uint32, error) { return 1 << 20, nil }
	return c
}

// TestOnDemandBlocksEqualEager compiles every method of every workload
// for every core kind and probes every instruction index in three
// orders — ascending, descending and shuffled — each on a fresh
// compilation. Whatever the order, Block(p) must be the block the eager
// reference builds for p: a block is a function of (Code, p) and of
// nothing a previous probe did. Lowered(p) must show nothing before the
// probe and the probed block after it.
func TestOnDemandBlocksEqualEager(t *testing.T) {
	methods := workloadMethods(t)
	depths := stackDepths(methods)
	rng := rand.New(rand.NewSource(14))
	blocks, pending := 0, 0
	for _, kind := range []isa.CoreKind{isa.PPE, isa.SPE, isa.VPU} {
		for order := 0; order < 3; order++ {
			c := newCompiler(kind)
			for _, m := range methods {
				cm, err := c.Compile(m)
				if err != nil {
					t.Fatal(err)
				}
				d := depths[m]
				want := jit.EagerSuperblocks(cm, d)
				visit := rng.Perm(len(cm.Code)) // order 2: shuffled
				if order < 2 {
					slices.Sort(visit)
				}
				if order == 1 {
					slices.Reverse(visit)
				}
				pending += cm.PendingBlocks()
				for _, p := range visit {
					if b := cm.Lowered(p); b != nil {
						t.Fatalf("%s [%v] pc %d: a block is lowered before its first probe", m.Sig(), kind, p)
					}
					got := cm.Block(p, d[p])
					if got != cm.Block(p, d[p]) || got != cm.Lowered(p) {
						t.Fatalf("%s [%v] pc %d: a second probe, or Lowered, returned a different block", m.Sig(), kind, p)
					}
					if got == nil {
						got = &jit.Superblock{} // the reference's "no block here"
					} else {
						blocks++
					}
					if !reflect.DeepEqual(*got, want[p]) {
						t.Fatalf("%s [%v] pc %d (order %d):\non demand %+v\neager     %+v",
							m.Sig(), kind, p, order, *got, want[p])
					}
				}
				if n := cm.PendingBlocks(); n != 0 {
					t.Fatalf("%s [%v]: %d entries still pending after every index was probed", m.Sig(), kind, n)
				}
			}
		}
	}
	if blocks == 0 || pending < blocks {
		t.Fatalf("compared %d blocks from %d pending entries; the sweep is vacuous", blocks, pending)
	}
	t.Logf("%d methods x 3 kinds x 3 orders: %d pending entries, %d lowered to blocks", len(methods), pending, blocks)
}

// TestLowerIsOneToOne pins the statement migration and hand-off rest on:
// on every registered kind a method's Code is its bytecode, index for
// index — same length, every branch, switch and handler target the
// bytecode's own — so a PC means the same in every compilation. Tables
// and Keys alias the bytecode's slices, so it also holds Compile to not
// writing the method it reads.
func TestLowerIsOneToOne(t *testing.T) {
	specs := workloads.All()
	for _, k := range workloads.Kernels() {
		specs = append(specs, k.AsSpec(true))
	}
	var progs []*classfile.Program
	for _, spec := range specs {
		p, err := spec.Build(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	entries := make([]workloads.MixEntry, 12)
	for i := range entries {
		entries[i] = workloads.MixEntry{Spec: specs[i%len(specs)], Threads: 2, Scale: 1}
	}
	mix, err := workloads.BuildMix(entries)
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, mix)

	compiled, switches := 0, 0
	for _, p := range progs {
		if err := p.Resolve(); err != nil {
			t.Fatal(err)
		}
		for _, kind := range isa.CoreKinds() {
			c := newCompiler(kind)
			for _, m := range p.Methods() {
				if m.IsNative() || m.IsAbstract() || m.Code == nil {
					continue
				}
				before := make([]classfile.BC, len(m.Code))
				for i, bc := range m.Code {
					before[i] = bc
					if sw := bc.Switch(); sw != nil {
						before[i].Operand = &classfile.Switch{Keys: slices.Clone(sw.Keys), Targets: slices.Clone(sw.Targets)}
					}
				}
				cm, err := c.Compile(m)
				if err != nil {
					t.Fatal(err)
				}
				compiled++
				if len(cm.Code) != len(m.Code) {
					t.Fatalf("%s [%v]: %d instructions from %d bytecodes", m.Sig(), kind, len(cm.Code), len(m.Code))
				}
				for pc, bc := range m.Code {
					in := cm.Code[pc]
					switch {
					case bc.Op == classfile.BCGoto:
						if in.A != bc.Target {
							t.Errorf("%s [%v] pc %d: goto @%d from bytecode @%d", m.Sig(), kind, pc, in.A, bc.Target)
						}
					case bc.Op.IsBranch(): // conditionals and switches: B is the target / default
						if in.B != bc.Target {
							t.Errorf("%s [%v] pc %d: %v @%d from bytecode @%d", m.Sig(), kind, pc, in.Op, in.B, bc.Target)
						}
					}
					if sw := bc.Switch(); sw != nil {
						switches++
						if !slices.Equal(cm.Tables[in.C], sw.Targets) || !slices.Equal(cm.Keys[in.C], sw.Keys) {
							t.Errorf("%s [%v] pc %d: switch table %v/%v from bytecode %v/%v",
								m.Sig(), kind, pc, cm.Keys[in.C], cm.Tables[in.C], sw.Keys, sw.Targets)
						}
					}
				}
				if len(cm.Handlers) != len(m.Handlers) {
					t.Fatalf("%s [%v]: %d handlers from %d", m.Sig(), kind, len(cm.Handlers), len(m.Handlers))
				}
				for i, h := range m.Handlers {
					if ch := cm.Handlers[i]; ch.From != h.From || ch.To != h.To || ch.Target != h.Target {
						t.Errorf("%s [%v]: handler %d is [%d,%d)->%d, bytecode's [%d,%d)->%d",
							m.Sig(), kind, i, ch.From, ch.To, ch.Target, h.From, h.To, h.Target)
					}
				}
				if !reflect.DeepEqual(m.Code, before) {
					t.Fatalf("%s [%v]: Compile wrote the bytecode it lowered", m.Sig(), kind)
				}
			}
		}
	}
	if compiled < 3*300 || switches == 0 {
		t.Errorf("%d compilations, %d switches; the sweep is vacuous", compiled, switches)
	}
	t.Logf("%d compilations over %d kinds, %d switch instructions", compiled, len(isa.CoreKinds()), switches)
}

// TestCompileBytesPerInstruction bounds what lowering bytecode to Code
// allocates, and what Compile allocates on top of it when no block is
// ever probed: the block index is four bytes an instruction, and nothing
// else may scale with the method (a dense Superblock table was 288).
func TestCompileBytesPerInstruction(t *testing.T) {
	methods := workloadMethods(t)
	allocated := func(f func(*jit.Compiler, *classfile.Method) error) uint64 {
		c := newCompiler(isa.SPE)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, m := range methods {
			if err := f(c, m); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	lower := allocated((*jit.Compiler).LowerOnly)
	instrs := 0
	compile := allocated(func(c *jit.Compiler, m *classfile.Method) error {
		cm, err := c.Compile(m)
		if err == nil {
			instrs += len(cm.Code)
		}
		return err
	})
	per := (float64(compile) - float64(lower)) / float64(instrs)
	t.Logf("%d methods, %d instructions: lowering %d B, Compile %d B, %.1f B per instruction on top", len(methods), instrs, lower, compile, per)
	if per > 16 {
		t.Errorf("Compile allocates %.1f B per instruction beyond the lowering to Code, want <= 16", per)
	}
	// The lowering itself keeps an Instr per instruction, presized, and
	// per method the CompiledMethod and its handlers — 22 B measured. It
	// was 30 with the two 4-byte bytecode<->Code index maps (a bytecode
	// index is a Code index now), which this budget does not fit.
	if budget := float64(unsafe.Sizeof(isa.Instr{})) * 1.5; float64(lower)/float64(instrs) > budget {
		t.Errorf("lowering allocates %.1f B per instruction, want <= %.0f", float64(lower)/float64(instrs), budget)
	}
	// With every index probed — every suffix of every run, where a thread
	// enters a handful: what a lowered block keeps, the Superblock and
	// exact-size copies of its micro-ops, boundaries and segments. 3 599 B
	// measured; it was 4 475 with the four deferred reference-flag lists
	// beside them, which this budget does not fit.
	blocks, ops := 0, 0
	depths := stackDepths(methods)
	probed := allocated(func(c *jit.Compiler, m *classfile.Method) error {
		cm, err := c.Compile(m)
		if err == nil {
			for p := range cm.Code {
				if b := cm.Block(p, depths[m][p]); b != nil {
					blocks++
					ops += len(b.Micro) + len(b.Mats)
				}
			}
		}
		return err
	})
	perBlock := (float64(probed) - float64(compile)) / float64(blocks)
	t.Logf("%d blocks, %d micro-ops: %d B, %.0f B per lowered block", blocks, ops, probed-compile, perBlock)
	if perBlock > 3800 {
		t.Errorf("a lowered block keeps %.0f B, want <= 3800", perBlock)
	}
}

// TestLoweringScratchNotShared lowers every block of every workload
// method on two compilers at once — as two cluster shards do — and
// requires equal blocks. Run under -race it also shows the lowering
// scratch is per compiler: a buffer shared between them is a data race.
func TestLoweringScratchNotShared(t *testing.T) {
	methods := workloadMethods(t)
	depths := stackDepths(methods)
	var lowered [2][]*jit.Superblock
	var wg sync.WaitGroup
	for i := range lowered {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newCompiler(isa.SPE)
			for _, m := range methods {
				cm, err := c.Compile(m)
				if err != nil {
					t.Error(err)
					return
				}
				for p := range cm.Code {
					lowered[i] = append(lowered[i], cm.Block(p, depths[m][p]))
				}
			}
		}()
	}
	wg.Wait()
	if len(lowered[0]) == 0 || !reflect.DeepEqual(lowered[0], lowered[1]) {
		t.Fatalf("two compilers lowering the same %d methods concurrently disagree (%d and %d probes)",
			len(methods), len(lowered[0]), len(lowered[1]))
	}
}

// BenchmarkLower measures the lowering Compile defers: every method of
// the paper programs compiled for the SPE outside the timer, then every
// pending entry probed once — the most a run could ever ask for.
// (Compile itself is the repository benchmark's
// jit.compile_ns_per_method.)
func BenchmarkLower(b *testing.B) {
	methods := workloadMethods(b)
	depths := stackDepths(methods)
	b.ReportAllocs()
	blocks := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := newCompiler(isa.SPE)
		cms := make([]*jit.CompiledMethod, len(methods))
		for i, m := range methods {
			cm, err := c.Compile(m)
			if err != nil {
				b.Fatal(err)
			}
			cms[i] = cm
		}
		b.StartTimer()
		for _, cm := range cms {
			for p := range cm.Code {
				if cm.Block(p, depths[cm.M][p]) != nil {
					blocks++
				}
			}
		}
	}
	b.ReportMetric(float64(blocks)/float64(b.N), "blocks/op")
}
