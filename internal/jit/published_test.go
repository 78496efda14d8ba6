// Published bodies against the eager reference, over real programs,
// and the body table shared by compilers and VMs. An external test
// package because workloads imports vm, which imports jit.
package jit_test

import (
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
// at each index: the depth of every frame that reaches Block there (-1
// where no path reaches the index).
func stackDepths(methods []*classfile.Method) map[*classfile.Method][]int {
	depths := make(map[*classfile.Method][]int, len(methods))
	for _, m := range methods {
		d := make([]int, len(m.Code))
		for p := range d {
			stack, _, err := classfile.KindsAt(m, p)
			d[p] = len(stack)
			if err != nil {
				d[p] = -1
			}
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

// TestPublishedBlocksEqualEager compiles every method of every workload
// for every core kind on a cold body table and requires, at every index
// of every published body, the block the eager reference builds there —
// and Next at each block's successors to be the blocks there.
func TestPublishedBlocksEqualEager(t *testing.T) {
	methods := workloadMethods(t)
	depths := stackDepths(methods)
	blocks := 0
	for _, kind := range []isa.CoreKind{isa.PPE, isa.SPE, isa.VPU} {
		jit.ResetBodies()
		c := newCompiler(kind)
		seen := make(map[*isa.Instr]bool)
		for _, m := range methods {
			cm, err := c.Compile(m)
			if err != nil {
				t.Fatal(err)
			}
			if seen[&cm.Code[0]] {
				continue
			}
			seen[&cm.Code[0]] = true
			want := jit.EagerSuperblocks(cm, depths[m])
			for p := range cm.Code {
				got := cm.Block(p)
				if got == nil {
					if want[p].Len != 0 {
						t.Fatalf("%s [%v] pc %d: no block, eager %+v", m.Sig(), kind, p, want[p])
					}
					continue
				}
				blocks++
				succ := []int{int(got.Target)}
				if got.End != jit.EndFall {
					succ = append(succ, p+int(got.Len))
				}
				for _, pc := range succ {
					if got.Next(pc) != cm.Block(pc) {
						t.Fatalf("%s [%v] pc %d: Next(%d) is not the block there", m.Sig(), kind, p, pc)
					}
				}
				// Compare the content; the successor links are checked above.
				if !reflect.DeepEqual(jit.Content(got), want[p]) {
					t.Fatalf("%s [%v] pc %d:\npublished %+v\neager     %+v", m.Sig(), kind, p, *got, want[p])
				}
			}
		}
	}
	if blocks == 0 {
		t.Fatal("no block was published; the check is vacuous")
	}
	t.Logf("%d methods x 3 kinds: %d published blocks", len(methods), blocks)
}

// TestLowerIsOneToOne pins the statement migration and hand-off rest on:
// on every registered kind a method's Code is its bytecode, index for
// index — same length, every branch, switch and handler target the
// bytecode's own — so a PC means the same in every compilation. Tables
// and Keys alias the bytecode's slices, so it also holds Compile to not
// writing the method it reads.
func TestLowerIsOneToOne(t *testing.T) {
	specs := append(workloads.All(), workloads.Kernels()...)
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
				before, beforePool := slices.Clone(m.Code), slices.Clone(m.Pool)
				for i, e := range beforePool {
					if sw, ok := e.(*classfile.Switch); ok {
						beforePool[i] = &classfile.Switch{Keys: slices.Clone(sw.Keys), Targets: slices.Clone(sw.Targets)}
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
					if sw := bc.Switch(m.Pool); sw != nil {
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
				if !reflect.DeepEqual(m.Code, before) || !reflect.DeepEqual(m.Pool, beforePool) {
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

// distinctBodies keeps the first of the methods with each distinct
// lowered body — the programs share stdlib bodies — so an allocation
// measurement over them prices each method's own body.
func distinctBodies(methods []*classfile.Method) []*classfile.Method {
	c := newCompiler(isa.SPE)
	seen := make(map[*isa.Instr]bool)
	var distinct []*classfile.Method
	for _, m := range methods {
		if cm, err := c.Compile(m); err == nil && !seen[&cm.Code[0]] {
			seen[&cm.Code[0]] = true
			distinct = append(distinct, m)
		}
	}
	return distinct
}

// TestCompileBytesPerInstruction bounds what lowering bytecode to Code
// allocates, what Compile allocates on top of it on a cold body table,
// and what a method whose body is already published costs. Publishing a
// body lowers its blocks, priced apart (RelowerBlocks lowers them again):
// a block keeps its Superblock and exact-size copies of its micro-ops,
// boundaries and segments; the rest of a new body — its Code, its
// four-byte-an-instruction block index and the verifier's depths — may
// not scale past 16 B an instruction (a dense Superblock table was 288).
// Its last row compiles a second copy of every body, as each job's class
// copy is on a serving VM and each boot of a workload is: that shares
// the first copy's Code, index and blocks, so it allocates none of them.
func TestCompileBytesPerInstruction(t *testing.T) {
	methods := distinctBodies(workloadMethods(t))
	allocated := func(c *jit.Compiler, methods []*classfile.Method, f func(*jit.Compiler, *classfile.Method) error) uint64 {
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
	// Each compiler lowers into scratch of its own, grown once to its
	// largest method; warm it first, so the rows price what each method
	// keeps.
	warm := func() *jit.Compiler {
		c := newCompiler(isa.SPE)
		for _, m := range methods {
			if err := c.LowerOnly(m); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	lower := allocated(warm(), methods, (*jit.Compiler).LowerOnly)
	instrs := 0
	var cms []*jit.CompiledMethod
	jit.ResetBodies()
	compile := allocated(warm(), methods, func(c *jit.Compiler, m *classfile.Method) error {
		cm, err := c.Compile(m)
		if err == nil {
			instrs += len(cm.Code)
			cms = append(cms, cm)
		}
		return err
	})
	depths := make([][]int32, len(cms))
	for i, cm := range cms {
		d, err := classfile.Depths(cm.M)
		if err != nil {
			t.Fatal(err)
		}
		depths[i] = d
		jit.RelowerBlocks(cm, d) // warm the scratch
	}
	blocks, i := 0, 0
	relower := allocated(nil, methods, func(*jit.Compiler, *classfile.Method) error {
		blocks += jit.RelowerBlocks(cms[i], depths[i])
		i++
		return nil
	})
	// The lowering itself keeps an Instr per instruction, presized, and
	// per method the CompiledMethod and its handlers — 22 B measured. It
	// was 30 with the two 4-byte bytecode<->Code index maps (a bytecode
	// index is a Code index now), which this budget does not fit.
	if budget := float64(unsafe.Sizeof(isa.Instr{})) * 1.5; float64(lower)/float64(instrs) > budget {
		t.Errorf("lowering allocates %.1f B per instruction, want <= %.0f", float64(lower)/float64(instrs), budget)
	}
	per := (float64(compile) - float64(lower) - float64(relower)) / float64(instrs)
	perBlock := float64(relower) / float64(blocks)
	t.Logf("%d methods, %d instructions, %d blocks: lowering %d B; Compile %d B, of which blocks and index %d B (%.0f B a block), %.1f B per instruction besides",
		len(methods), instrs, blocks, lower, compile, relower, perBlock, per)
	if per > 16 {
		t.Errorf("Compile allocates %.1f B per instruction beyond the lowering to Code and the blocks, want <= 16", per)
	}
	// A block measured 902 B when blocks were lowered on demand (the
	// index apart); it was 4 475 B with the four deferred
	// reference-flag lists beside it, which this budget does not fit.
	if perBlock > 3800 {
		t.Errorf("a published block keeps %.0f B, want <= 3800", perBlock)
	}
	// A second copy keeps its CompiledMethod and handlers, about one byte
	// an instruction; its own block index alone would be four.
	again := distinctBodies(workloadMethods(t))
	second := allocated(warm(), again, func(c *jit.Compiler, m *classfile.Method) error {
		cm, err := c.Compile(m)
		if err == nil {
			for p := range cm.Code {
				cm.Block(p)
			}
		}
		return err
	})
	if perCopy := float64(second) / float64(instrs); perCopy > 4 {
		t.Errorf("compiling a second copy of every body allocates %.1f B per instruction, want <= 4", perCopy)
	} else {
		t.Logf("a second copy of every body: %d B, %.1f B per instruction", second, perCopy)
	}
}

// TestSharedBodiesConcurrentCompile compiles every workload method on
// two compilers at once, from a cold body table — as two cluster shards
// or two VMs on their own goroutines do — and requires both to end with
// the same bodies: one Code slice and one set of blocks per distinct
// body, whichever compiler published it. Run under -race it also shows
// the table's lock covers publishing and that nothing writes to a body
// after.
func TestSharedBodiesConcurrentCompile(t *testing.T) {
	methods := workloadMethods(t)
	jit.ResetBodies()
	var blocks [2][]*jit.Superblock
	var code [2][]*isa.Instr
	var wg sync.WaitGroup
	for i := range blocks {
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
				code[i] = append(code[i], &cm.Code[0])
				for p := range cm.Code {
					b := cm.Block(p)
					if b != nil {
						b.Next(int(b.Target))
					}
					blocks[i] = append(blocks[i], b)
				}
			}
		}()
	}
	wg.Wait()
	if !slices.Equal(code[0], code[1]) || !slices.Equal(blocks[0], blocks[1]) || !slices.ContainsFunc(blocks[0], func(b *jit.Superblock) bool { return b != nil }) {
		t.Fatalf("two compilers compiling the same %d methods concurrently hold different bodies", len(methods))
	}
}

// BenchmarkLower measures what publishing the bodies costs: every method
// of the paper programs compiled for the SPE on a cold body table, which
// lowers every block a run could ask for. (Compile on a warm table is
// the repository benchmark's jit.compile_ns_per_method.)
func BenchmarkLower(b *testing.B) {
	methods := workloadMethods(b)
	b.ReportAllocs()
	blocks := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		jit.ResetBodies()
		c := newCompiler(isa.SPE)
		b.StartTimer()
		for _, m := range methods {
			cm, err := c.Compile(m)
			if err != nil {
				b.Fatal(err)
			}
			for p := range cm.Code {
				if cm.Block(p) != nil {
					blocks++
				}
			}
		}
	}
	b.ReportMetric(float64(blocks)/float64(b.N), "blocks/op")
}
