// On-demand lowering against the eager reference, over real programs.
// An external test package because workloads imports vm, which imports
// jit.
package jit_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"herajvm/internal/classfile"
	"herajvm/internal/isa"
	"herajvm/internal/jit"
	"herajvm/internal/mem"
	"herajvm/internal/workloads"
)

// TestOnDemandBlocksEqualEager compiles every method of every workload
// for every core kind and probes every instruction index in three
// orders — ascending, descending and shuffled — each on a fresh
// compilation. Whatever the order, Block(p) must be the block the eager
// reference builds for p: a block is a function of (Code, p) and of
// nothing a previous probe did.
func TestOnDemandBlocksEqualEager(t *testing.T) {
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
	rng := rand.New(rand.NewSource(14))
	blocks, pending := 0, 0
	for _, kind := range []isa.CoreKind{isa.PPE, isa.SPE, isa.VPU} {
		for order := 0; order < 3; order++ {
			main := mem.NewMain(64 << 20)
			c := jit.NewCompiler(kind, main, mem.NewRegion("code", 4096, 32<<20))
			c.InternString = func(string) (uint32, error) { return 1 << 20, nil }
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
					if !reflect.DeepEqual(*got, want[p]) {
						t.Fatalf("%s [%v] pc %d (order %d):\non demand %+v\neager     %+v",
							m.Sig(), kind, p, order, *got, want[p])
					}
					if got != cm.Block(p) {
						t.Fatalf("%s [%v] pc %d: a second probe returned a different block", m.Sig(), kind, p)
					}
					if got.Len > 0 {
						blocks++
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
