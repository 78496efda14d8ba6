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
func workloadMethods(t *testing.T) []*classfile.Method {
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
// nothing a previous probe did.
func TestOnDemandBlocksEqualEager(t *testing.T) {
	methods := workloadMethods(t)
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
				want := jit.EagerSuperblocks(cm.Code)
				visit := rng.Perm(len(cm.Code)) // order 2: shuffled
				if order < 2 {
					slices.Sort(visit)
				}
				if order == 1 {
					slices.Reverse(visit)
				}
				pending += cm.PendingBlocks()
				for _, p := range visit {
					got := cm.Block(p)
					if got != cm.Block(p) {
						t.Fatalf("%s [%v] pc %d: a second probe returned a different block", m.Sig(), kind, p)
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
	// The lowering itself keeps an Instr and two 4-byte index maps
	// (EntryOf, BCIndex) per instruction, presized — 30 B measured; it
	// was 82 with Code append-doubled and the maps built twice.
	if budget := float64(unsafe.Sizeof(isa.Instr{})+8) * 1.25; float64(lower)/float64(instrs) > budget {
		t.Errorf("lowering allocates %.1f B per instruction, want <= %.0f", float64(lower)/float64(instrs), budget)
	}
}

// TestLoweringScratchNotShared lowers every block of every workload
// method on two compilers at once — as two cluster shards do — and
// requires equal blocks. Run under -race it also shows the lowering
// scratch is per compiler: a buffer shared between them is a data race.
func TestLoweringScratchNotShared(t *testing.T) {
	methods := workloadMethods(t)
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
					lowered[i] = append(lowered[i], cm.Block(p))
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
