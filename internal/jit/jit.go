// Package jit implements Hera-JVM's baseline (non-optimising)
// just-in-time compilers: one backend per core type, as in §3.1 of the
// paper ("a Java bytecode to SPE machine code compiler is required to
// support the SPE cores"). Each backend macro-expands bytecode into the
// shared machine-instruction vocabulary with target-specific costs and
// encoded sizes, and allocates the compiled code a real address and size
// in the simulated main memory's code region, so the SPE code cache has
// sized blocks to bill DMA for. The executor runs the compiled form, so
// no byte is ever written at that address.
//
// Methods are compiled lazily per core type: "a method will only be
// compiled for a particular core architecture if it is to be executed by
// a thread running on that core type" (§3.1). The VM asks each target's
// Compiler for a method the first time a thread running on that core
// kind invokes it. What a compilation lowers beyond Code — the
// superblocks at every point where control enters a straight-line run:
// its head, a jump target, or just past a memory instruction — is a
// function of the lowered body alone, so it is done once per distinct
// body per process: the first compiler to lower a body publishes it,
// complete, in one process-wide table, and every method of every VM
// whose body lowers alike (a serving VM's per-job class copies, every
// boot of a workload) shares it.
package jit

import (
	"fmt"
	"slices"
	"sync"

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
	// machines (hand-off) with its PC as it stands. It is the body's, so
	// every method of the process with an equal body has the same slice.
	Code []isa.Instr
	// Tables holds switch jump tables and Keys the lookupswitch key sets,
	// parallel to Tables (nil for a tableswitch); both are the body's,
	// and their entries the bytecode's own slices (of the body's first
	// method, equal to this one's), read-only here as there.
	Tables [][]int32
	Keys   [][]int32
	// Handlers is the exception table; ClassID -1 catches everything.
	Handlers []CompiledHandler
	// body is the lowered body — Code, the superblock index and the
	// blocks lowered from it — which this method shares with every
	// method of the process whose lowering is equal (share); the
	// executor reaches it only through Block.
	body *body
	// Addr and Size locate the encoded code in simulated main memory's
	// code region (an address range only: no byte is written there).
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
	region *mem.Region

	// InternString resolves a string literal to a heap reference at
	// compile time (constant-pool resolution). Set by the VM before any
	// method using BCConstStr is compiled.
	InternString func(s string) (uint32, error)

	compiled map[*classfile.Method]*CompiledMethod

	// code, tables and keys are the scratch lower writes a method into,
	// cloned only when no published body matches; nest is StaticCost's.
	code         []isa.Instr
	tables, keys [][]int32
	nest         []int32

	// Compiles and CodeBytes describe total compilation activity; the
	// paper argues per-core lazy compilation keeps this near
	// single-architecture levels (§3.1), which reports can check.
	Compiles  uint64
	CodeBytes uint64
}

// NewCompiler builds a compiler for one core type, allocating its
// compiled code addresses in the given main-memory region. The memory
// itself is unused — no code byte is written — and the parameter stays
// only for existing callers.
func NewCompiler(target isa.CoreKind, _ *mem.Main, region *mem.Region) *Compiler {
	return &Compiler{
		target:   target,
		costs:    isa.Costs(target),
		region:   region,
		compiled: make(map[*classfile.Method]*CompiledMethod),
	}
}

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
	// Give the code its own address range in the code region: the code
	// cache bills transfers of these blocks but copies no bytes, so the
	// range is never written. A method sharing a body still has a range
	// of its own, so nothing simulated can tell a shared body from a
	// fresh one.
	addr, err := c.region.Alloc(cm.Size, 16)
	if err != nil {
		return nil, fmt.Errorf("jit: code region full compiling %s: %w", m.Sig(), err)
	}
	bd, err := share(cm)
	if err != nil {
		return nil, fmt.Errorf("jit: %w", err)
	}
	cm.body, cm.Code, cm.Tables, cm.Keys = bd, bd.code, bd.tables, bd.keys
	cm.Addr = addr
	c.compiled[m] = cm
	c.Compiles++
	c.CodeBytes += uint64(cm.Size)
	return cm, nil
}

// maxBodies bounds the body table. The bench's workloads hold from 68
// (exec) to 517 (serve, whose per-job statics give each copy its own
// operands) distinct bodies over every kind.
const maxBodies = 1024

// bodies is the process's one body table: every distinct body a compiler
// of any VM has lowered, indexed by the hash of its Code and chained
// through body.next, with n the bodies it holds. The mutex guards the
// index and lowering, the scratch every new body's blocks are lowered in
// (see microCompiler); a published body needs no lock, since nothing
// writes to it. When the table is full the whole index is dropped, as
// the paper's data cache flushes when it fills: a VM keeps the bodies
// its methods already point at.
var bodies struct {
	sync.Mutex
	index    map[uint64]*body
	n        int
	lowering microCompiler
}

// share returns the published body equal to cm's scratch lowering,
// publishing a new one when none is.
func share(cm *CompiledMethod) (*body, error) {
	h := hash(cm)
	bodies.Lock()
	defer bodies.Unlock()
	if bd := find(cm, h); bd != nil {
		return bd, nil
	}
	depth, err := classfile.Depths(cm.M)
	if err != nil {
		return nil, err
	}
	bd := &body{
		code:      slices.Clone(cm.Code),
		tables:    slices.Clone(cm.Tables),
		keys:      slices.Clone(cm.Keys),
		handlers:  cm.Handlers,
		maxLocals: int32(cm.M.MaxLocals),
	}
	bd.lower(depth, &bodies.lowering)
	if bodies.index == nil || bodies.n == maxBodies {
		bodies.index, bodies.n = make(map[uint64]*body), 0
	}
	bd.next = bodies.index[h]
	bodies.index[h] = bd
	bodies.n++
	return bd, nil
}

// hash is the key cm's scratch lowering is (or will be) indexed under:
// its Code and MaxLocals.
func hash(cm *CompiledMethod) uint64 {
	h := uint64(14695981039346656037) ^ uint64(cm.M.MaxLocals)
	for _, in := range cm.Code {
		h = (h ^ uint64(in.Op) ^ uint64(in.Cost)<<8 ^ uint64(uint32(in.A))<<24) * 1099511628211
		h = (h ^ uint64(uint32(in.B)) ^ uint64(uint32(in.C))<<32) * 1099511628211
	}
	return h
}

// find returns the published body under hash h that equals cm's scratch
// lowering, or nil. A candidate must match everything lowering a block
// and the verifier's stack depths read: every instruction, MaxLocals,
// the handler ranges and the switch tables. Handler class IDs are not
// compared — they stay the method's own. The caller holds the lock.
func find(cm *CompiledMethod, h uint64) *body {
	for bd := bodies.index[h]; bd != nil; bd = bd.next {
		if bd.maxLocals == int32(cm.M.MaxLocals) && slices.Equal(bd.code, cm.Code) &&
			slices.EqualFunc(bd.handlers, cm.Handlers, sameRange) &&
			slices.EqualFunc(bd.tables, cm.Tables, slices.Equal) &&
			slices.EqualFunc(bd.keys, cm.Keys, slices.Equal) {
			return bd
		}
	}
	return nil
}

// sameRange compares two handlers' ranges, not their class IDs.
func sameRange(a, b CompiledHandler) bool {
	return a.From == b.From && a.To == b.To && a.Target == b.Target
}

// LoopTrips is the trip count StaticCost assumes of every loop, and
// maxLoopDepth the deepest nest it weights: a deeper instruction counts
// as one at that depth, which keeps every cost far from overflow.
const (
	LoopTrips    = 8
	maxLoopDepth = 4
)

// StaticCost predicts m's cycles for one call on this compiler's kind,
// by operation class, from its lowered code alone: each instruction's
// cost, times LoopTrips for every loop around it, plus half the kind's
// taken-branch penalty on every conditional branch (a static guess of
// taken half the time), plus hitCycles — what the kind's memory path
// charges an access that hits — for every memory touch: two for an
// array element (its length word, then the element), one for any other
// memory instruction. A backward branch closes a loop from its target;
// a header's loop runs to its furthest such branch. It lowers into the
// compiler's scratch and nothing else — no CompiledMethod is registered,
// no code address allocated and no compile billed — so a caller may
// price a method on a kind that will never run it without moving any
// simulated number.
func (c *Compiler) StaticCost(m *classfile.Method, hitCycles uint64) (cost [isa.NumClasses]uint64, err error) {
	if m.IsNative() || m.IsAbstract() || m.Code == nil {
		return cost, fmt.Errorf("jit: cannot price %s (no bytecode)", m.Sig())
	}
	var cm CompiledMethod
	if err := c.lowerInto(&cm, m); err != nil {
		return cost, err
	}
	code := cm.Code
	// nest[h] is first where h's loop ends, then, visiting h from the
	// back, how the nesting depth changes at h: each end index is past
	// its header, so it has been visited by the time a decrement lands.
	nest := slices.Grow(c.nest[:0], len(code)+1)[:len(code)+1]
	clear(nest)
	for pc, in := range code {
		if t, _, ok := branchTarget(in); ok && int(t) <= pc {
			nest[t] = max(nest[t], int32(pc+1))
		}
	}
	for h := len(code) - 1; h >= 0; h-- {
		if end := nest[h]; end > 0 {
			nest[h] = 1
			nest[end]--
		}
	}
	depth := int32(0)
	for pc, in := range code {
		depth += nest[pc]
		w := uint64(1)
		for range min(depth, maxLoopDepth) {
			w *= LoopTrips
		}
		cost[in.Op.Class()] += w * uint64(in.Cost)
		if _, cond, _ := branchTarget(in); cond {
			cost[isa.ClassBranch] += w * uint64(c.costs.BranchTakenExtra) / 2
		}
		switch {
		case in.Op == isa.OpALoad || in.Op == isa.OpAStore:
			cost[isa.ClassLocalMem] += w * 2 * hitCycles
		case memOp(in.Op):
			cost[isa.ClassLocalMem] += w * hitCycles
		}
	}
	c.nest = nest
	return cost, nil
}

// branchTarget returns the target of a goto or a conditional branch,
// whether it is conditional, and whether in is either.
func branchTarget(in isa.Instr) (target int32, cond, ok bool) {
	switch in.Op {
	case isa.OpGoto:
		return in.A, false, true
	case isa.OpIf, isa.OpIfCmpI, isa.OpIfCmpRef, isa.OpIfNull:
		return in.B, true, true
	}
	return 0, false, false
}

// CompileCycles estimates the cycle cost of baseline-compiling m: the
// VM charges it to the compiling core the first time a method is JITed
// for a target.
func (c *Compiler) CompileCycles(m *classfile.Method) uint64 {
	return 800 + 40*uint64(len(m.Code))
}
