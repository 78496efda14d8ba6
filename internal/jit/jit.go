// Package jit implements Hera-JVM's baseline (non-optimising)
// just-in-time compilers: one backend per core type, as in §3.1 of the
// paper ("a Java bytecode to SPE machine code compiler is required to
// support the SPE cores"). Each backend macro-expands bytecode into the
// shared machine-instruction vocabulary with target-specific costs and
// encoded sizes, and allocates the compiled code a real address and size
// in simulated main memory so the SPE code cache has real, sized blocks
// to DMA.
//
// Methods are compiled lazily per core type: "a method will only be
// compiled for a particular core architecture if it is to be executed by
// a thread running on that core type" (§3.1). The VM asks each target's
// Compiler for a method the first time a thread running on that core
// kind invokes it. The same rule holds one level down: compiling a
// method only marks where superblocks may start, and CompiledMethod.Block
// lowers the one at a PC the first time a thread enters there.
package jit

import (
	"fmt"

	"herajvm/internal/classfile"
	"herajvm/internal/isa"
	"herajvm/internal/mem"
)

// CompiledMethod is the result of baseline-compiling one method for one
// core type.
type CompiledMethod struct {
	M      *classfile.Method
	Target isa.CoreKind
	// Code is the machine instruction sequence, one instruction per
	// bytecode: Code[pc] is M.Code[pc] lowered, on every kind, so a PC
	// names the same point of the method in every compilation of it —
	// which is what lets a frame move across kinds (migration) and across
	// machines (hand-off) with its PC as it stands.
	Code []isa.Instr
	// Tables holds switch jump tables and Keys the lookupswitch key sets,
	// parallel to Tables (nil for a tableswitch); both are the bytecode's
	// own slices, read-only here as there.
	Tables [][]int32
	Keys   [][]int32
	// Handlers is the exception table; ClassID -1 catches everything.
	Handlers []CompiledHandler
	// sbIdx says, per instruction index, whether a superblock starts
	// there: 0 none, negative pending (a block of that many instructions
	// may start here and is lowered on its first probe), positive i the
	// lowered blocks[i]. blocks[0] is nil, so "none" needs no branch of
	// its own in Block. Four bytes an instruction, and a Superblock only
	// for an entry a thread took; the VM's executor reaches both only
	// through Block. lowering is the owning Compiler's scratch.
	sbIdx    []int32
	blocks   []*Superblock
	lowering *microCompiler
	// Addr and Size locate the encoded code in simulated main memory.
	Addr mem.Addr
	Size uint32
}

// CompiledHandler is one lowered exception-table entry.
type CompiledHandler struct {
	From, To, Target int
	ClassID          int
}

// Compiler is a per-target baseline compiler plus its compiled-code
// registry.
type Compiler struct {
	target isa.CoreKind
	costs  *isa.CostTable
	main   *mem.Main
	region *mem.Region

	// InternString resolves a string literal to a heap reference at
	// compile time (constant-pool resolution). Set by the VM before any
	// method using BCConstStr is compiled.
	InternString func(s string) (uint32, error)

	compiled map[*classfile.Method]*CompiledMethod

	// lowering is the scratch every block of this compiler's methods is
	// lowered in (see microCompiler).
	lowering microCompiler

	// Compiles and CodeBytes describe total compilation activity; the
	// paper argues per-core lazy compilation keeps this near
	// single-architecture levels (§3.1), which reports can check.
	Compiles  uint64
	CodeBytes uint64
}

// NewCompiler builds a compiler for one core type, emitting code into
// the given main-memory region.
func NewCompiler(target isa.CoreKind, main *mem.Main, region *mem.Region) *Compiler {
	return &Compiler{
		target:   target,
		costs:    isa.Costs(target),
		main:     main,
		region:   region,
		compiled: make(map[*classfile.Method]*CompiledMethod),
	}
}

// Target returns the compiler's core kind.
func (c *Compiler) Target() isa.CoreKind { return c.target }

// Costs exposes the backend cost table (the executor charges dynamic
// branch penalties from it).
func (c *Compiler) Costs() *isa.CostTable { return c.costs }

// Lookup returns the compiled form if it exists, else nil.
func (c *Compiler) Lookup(m *classfile.Method) *CompiledMethod {
	return c.compiled[m]
}

// Compile returns the compiled form of m for this target, compiling on
// first use.
func (c *Compiler) Compile(m *classfile.Method) (*CompiledMethod, error) {
	if cm, ok := c.compiled[m]; ok {
		return cm, nil
	}
	if m.IsNative() || m.IsAbstract() {
		return nil, fmt.Errorf("jit: cannot compile %s (native/abstract)", m.Sig())
	}
	if m.Code == nil {
		return nil, fmt.Errorf("jit: %s has no bytecode", m.Sig())
	}
	cm, err := c.lower(m)
	if err != nil {
		return nil, err
	}
	cm.sbIdx = discoverSuperblocks(cm.Code)
	cm.blocks = noBlocks
	cm.lowering = &c.lowering
	// Allocate the code real space in main memory and fill it with a
	// recognisable pattern: the code cache DMAs these bytes around.
	addr, err := c.region.Alloc(cm.Size, 16)
	if err != nil {
		return nil, fmt.Errorf("jit: code region full compiling %s: %w", m.Sig(), err)
	}
	cm.Addr = addr
	pattern := byte(0x40 | byte(c.target))
	for i := uint32(0); i < cm.Size; i += 64 {
		c.main.Write8(addr+i, pattern)
	}
	c.compiled[m] = cm
	c.Compiles++
	c.CodeBytes += uint64(cm.Size)
	return cm, nil
}

// CompileCycles estimates the cycle cost of baseline-compiling m: the
// VM charges it to the compiling core the first time a method is JITed
// for a target.
func (c *Compiler) CompileCycles(m *classfile.Method) uint64 {
	return 800 + 40*uint64(len(m.Code))
}

// Disassemble renders the compiled code for debugging.
func (cm *CompiledMethod) Disassemble() string {
	s := fmt.Sprintf("%s [%v] %d instrs, %d bytes @%#x\n",
		cm.M.Sig(), cm.Target, len(cm.Code), cm.Size, cm.Addr)
	for i, in := range cm.Code {
		s += fmt.Sprintf("%4d  %s\n", i, in)
	}
	return s
}
