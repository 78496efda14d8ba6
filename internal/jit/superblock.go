package jit

import (
	"herajvm/internal/isa"
)

// Superblock memoizes the static execution effects of a maximal pure
// straight-line run of compiled code beginning at one instruction
// index. The VM's executor uses it to fast-forward a whole run without
// dispatching instruction by instruction, with semantics byte-identical
// to per-instruction stepping.
//
// The replay advances the core clock segment by segment — Cycles, then
// each boundary's Cost and SegCycles — because the memory system reads
// the clock at every absorbed access. Everything else a block bills
// (ClassCycles, Len retired instructions) the executor adds up over a
// whole chain of blocks and settles once when the chain ends.
//
// A block ends at (exclusive) the first instruction that can call,
// return, touch the heap or caches, allocate, synchronise, throw, or
// trap; a control transfer may terminate a block inclusively — an
// unconditional goto (static target, fixed cost) or one conditional
// branch, whose outcome the executor evaluates from the block's own
// final stack and feeds to the interpreter's own branch model
// (predictor update, penalty). Division by a preceding nonzero constant
// is admitted (it cannot trap), but such an instruction can never
// *start* a block: a branch could land on it with a computed divisor on
// the stack, losing the guarantee.
type Superblock struct {
	// Len is the number of instructions the block covers (at least 1):
	// all of them retire when the block completes, Len-len(Bounds) of
	// them fast-forwarded.
	Len int32
	// Target is the Code index execution continues at after the block:
	// the trailing goto's destination, or entry+Len for fallthrough.
	// When End is a conditional kind, Target is the taken destination
	// and the not-taken path falls through to entry+Len.
	Target int32
	// End classifies the block's terminal control transfer: EndFall for
	// fallthrough or a trailing goto (Target is static either way), or
	// the conditional-branch opcode whose outcome the replay must decide.
	End isa.Op
	// Cond is a conditional terminal's condition code (the branch
	// instruction's A operand).
	Cond int32
	// Cycles is the static cost of the block's first pure segment (the
	// whole block when it absorbs no memory instruction): the clock
	// advance at entry, and what the executor's guard checks against
	// the deadline. ClassCycles buckets the static cost of the *whole*
	// block — every segment, every boundary and the terminal — by
	// operation class.
	Cycles      uint64
	ClassCycles [isa.NumClasses]uint64
	// StackDelta is the block's net operand-stack growth in slots.
	// EntrySP is the operand-stack depth the block was lowered for: the
	// verifier's depth at its entry, which every frame reaching the
	// entry has, since Micro addresses the frame's slots absolutely.
	StackDelta int32
	EntrySP    int32

	// Micro is the block lowered to frame-addressed micro-ops.
	Micro []MicroOp

	// Bounds/Mats describe the block's absorbed memory instructions:
	// per-boundary metadata, and the shadow materialisations that
	// rebuild exact stepped frame state when the replay must hand back
	// to the dispatcher mid-block (quantum expiry or a trap).
	Bounds []MemBound
	Mats   []MicroOp

	// taken and fall memoize the blocks at the two PCs the block can
	// continue at (Next): Target, and the fallthrough entry+Len of a
	// conditional terminal. Only found blocks are kept; nil re-probes.
	taken, fall *Superblock
}

// MemBound is the executor-facing metadata for one absorbed memory
// instruction. The replay advances the clock by the instruction's
// static cost from here, reads its operand descriptors from the paired
// micro-op, then advances it over the pure segment that follows; on any
// early exit (deadline, trap) it uses the recorded materialisation
// range to restore the exact frame state per-instruction stepping would
// show at that point.
type MemBound struct {
	// SegCycles is the static cost of the pure segment after the
	// instruction, up to the next boundary or the block's end (its
	// terminal included).
	SegCycles uint64
	// RelIdx is the instruction's Code index relative to the block
	// entry; Cost its static cost.
	RelIdx int32
	Cost   uint32
	// Kind/Flags carry the instruction's A/B operands (element kind or
	// field slot, and the volatile flag bit).
	Kind  int32
	Flags int32
	// Stack depths relative to the block's entry SP: after a trap's
	// pops, and after the instruction completes.
	SPTrap, SPAfter int32
	// Mats[MatLo:MatHi] materialises the live values below the operands,
	// which is all either early exit needs.
	MatLo, MatHi int32
}

// End kinds. EndFall (the zero value) covers plain fallthrough and the
// trailing unconditional goto; the conditional kinds are the four
// conditional-branch opcodes themselves. A block never *contains* a
// branch — a conditional terminal is always its last instruction,
// counted in Len, Cycles and StackDelta (the branch pops its operands).
const (
	EndFall     = isa.OpNop
	EndIf       = isa.OpIf
	EndIfCmpI   = isa.OpIfCmpI
	EndIfCmpRef = isa.OpIfCmpRef
	EndIfNull   = isa.OpIfNull
)

// pureOp reports whether op can always join a superblock: it cannot
// trap, branch, call, return, or touch heap, caches, monitors, the
// allocator or the branch predictor. Operand-stack and local-variable
// traffic, non-trapping ALU work and conversions qualify; integer
// divide/remainder do not (division by zero traps) unless guarded by a
// constant divisor, which guardedDiv admits separately.
func pureOp(op isa.Op) bool {
	switch op {
	case isa.OpNop, isa.OpPushConst, isa.OpLoadLocal, isa.OpStoreLocal,
		isa.OpPop, isa.OpPop2, isa.OpDup, isa.OpDup2, isa.OpIncLocal,
		isa.OpAddI, isa.OpSubI, isa.OpMulI, isa.OpNegI, isa.OpAndI,
		isa.OpOrI, isa.OpXorI, isa.OpShlI, isa.OpShrI, isa.OpUShrI,
		isa.OpAddL, isa.OpSubL, isa.OpMulL, isa.OpNegL, isa.OpAndL,
		isa.OpOrL, isa.OpXorL, isa.OpShlL, isa.OpShrL, isa.OpUShrL,
		isa.OpCmpL,
		isa.OpAddF, isa.OpSubF, isa.OpMulF, isa.OpDivF, isa.OpNegF,
		isa.OpRemF, isa.OpCmpF,
		isa.OpAddD, isa.OpSubD, isa.OpMulD, isa.OpDivD, isa.OpNegD,
		isa.OpRemD, isa.OpCmpD,
		isa.OpI2L, isa.OpI2F, isa.OpI2D, isa.OpL2I, isa.OpL2F, isa.OpL2D,
		isa.OpF2I, isa.OpF2L, isa.OpF2D, isa.OpD2I, isa.OpD2L, isa.OpD2F,
		isa.OpI2B, isa.OpI2C, isa.OpI2S:
		return true
	}
	return false
}

// guardedDivOp reports whether op is an integer divide/remainder (the
// only pure-class ALU ops that can trap).
func guardedDivOp(op isa.Op) bool {
	switch op {
	case isa.OpDivI, isa.OpRemI, isa.OpDivL, isa.OpRemL:
		return true
	}
	return false
}

// guardedDiv reports whether the divide/remainder at index i provably
// cannot trap: its divisor is the immediately preceding pushconst and
// is nonzero. (MinValue/-1 does not trap; isa.Eval defines its result.)
func guardedDiv(code []isa.Instr, i int) bool {
	if i == 0 || code[i-1].Op != isa.OpPushConst {
		return false
	}
	prev := code[i-1]
	switch code[i].Op {
	case isa.OpDivI, isa.OpRemI:
		return prev.A != 0
	case isa.OpDivL, isa.OpRemL:
		return uint64(uint32(prev.A))|uint64(uint32(prev.B))<<32 != 0
	}
	return false
}

// memOp reports whether op is an absorbable memory instruction: array
// and field traffic whose dynamic cache cost the replay charges as it
// crosses it. Allocation, calls, monitors and the like stay block
// boundaries.
func memOp(op isa.Op) bool {
	switch op {
	case isa.OpALoad, isa.OpAStore, isa.OpArrayLen,
		isa.OpGetField, isa.OpPutField, isa.OpGetStatic, isa.OpPutStatic:
		return true
	}
	return false
}

// terminalOp reports whether op is a control transfer that may end a
// block inclusively: an unconditional goto (static target, fixed cost)
// or one conditional branch, whose outcome the executor decides from
// the replayed stack.
func terminalOp(op isa.Op) bool {
	switch op {
	case isa.OpGoto, isa.OpIf, isa.OpIfCmpI, isa.OpIfCmpRef, isa.OpIfNull:
		return true
	}
	return false
}

// discoverSuperblocks marks, for every instruction index, whether a
// superblock may start there, in the encoding of CompiledMethod.sbIdx.
//
// Within each maximal run [s, e) of pure and absorbable-memory
// instructions — optionally extended through one terminating goto or
// conditional branch — every admissible index p is left *pending* on
// the suffix reaching the run's end (-(e-p)), so a thread whose quantum
// expired mid-run resumes with a (shorter) block at its exact PC.
// Nothing is lowered here: a thread enters a run at a handful of PCs,
// and CompiledMethod.Block lowers the suffix at p the first time the
// executor probes it.
func discoverSuperblocks(code []isa.Instr) []int32 {
	idx := make([]int32, len(code))
	for s := 0; s < len(code); {
		// Find the maximal run of in-context-admissible instructions.
		e := s
		for e < len(code) && (pureOp(code[e].Op) || memOp(code[e].Op) ||
			(e > s && guardedDiv(code, e))) {
			e++
		}
		if e == s {
			s++
			continue
		}
		if e < len(code) && terminalOp(code[e].Op) {
			e++
		}
		for p := s; p < e; p++ {
			// A branch may land on a guarded div with an unproven divisor
			// on the stack, and a memory instruction's operands come from
			// before the entry; blocks run through both, but neither
			// starts one.
			if op := code[p].Op; !guardedDivOp(op) && !memOp(op) {
				idx[p] = int32(p - e)
			}
		}
		s = e
	}
	return idx
}

// noBlocks is every method's block list before its first lowering:
// position 0 alone, the nil block an sbIdx of 0 selects. Nothing writes
// to it — its capacity is its length, so lowerBlock's first append
// copies it — which is what lets every method share the one.
var noBlocks = make([]*Superblock, 1)

// Block returns the superblock starting at instruction index p, or nil
// when none does, lowering a pending one on this first probe for a
// frame whose operand stack is sp deep. It is the executor's only way
// to a block, so a block no thread enters is never built; and since the
// verifier fixes the depth at every index, a block's content is a pure
// function of (Code, p), so the order of probes cannot change what any
// of them sees.
func (cm *CompiledMethod) Block(p, sp int) *Superblock {
	i := cm.sbIdx[p]
	if i < 0 {
		return cm.lowerBlock(p, sp)
	}
	return cm.blocks[i]
}

// Lowered returns the block a probe has lowered at p, or nil when none
// has (yet); it lowers nothing.
func (cm *CompiledMethod) Lowered(p int) *Superblock {
	return cm.blocks[max(cm.sbIdx[p], 0)]
}

// lowerBlock replaces the pending entry at index p with the block
// covering Code[p:e], its suffix of a discovered run (kept out of line
// so Block inlines into the executor's dispatch). The replayable
// (micro-compilable) prefix [p, pe) excludes a trailing control
// terminal: a goto has no data effect, and a conditional branch reads
// the operands the replay leaves just above the block's final SP. The
// terminal's cost and instruction count still belong to the block's
// final segment, so the compiler receives it separately. When the
// micro lowering bails (typically an instruction consuming operands
// the suffix did not push) no block starts at p: the interpreter steps
// until the next index whose suffix does lower.
func (cm *CompiledMethod) lowerBlock(p, sp int) *Superblock {
	code := cm.Code
	e := p - int(cm.sbIdx[p])
	pe := e
	var term *isa.Instr
	if terminalOp(code[e-1].Op) {
		pe--
		term = &code[pe]
	}
	mb, ok := cm.lowering.compile(code[p:pe], term, int32(cm.M.MaxLocals+sp))
	if !ok {
		cm.sbIdx[p] = 0
		return nil
	}
	b := &Superblock{
		Len: int32(e - p), Target: int32(pe),
		Cycles: mb.FirstCycles, ClassCycles: mb.Class,
		Micro: mb.Micro, StackDelta: mb.StackDelta, EntrySP: int32(sp),
		Bounds: mb.Bounds, Mats: mb.Mats,
	}
	if term != nil {
		if term.Op == isa.OpGoto {
			b.Target = term.A
		} else {
			b.End, b.Target, b.Cond = term.Op, term.B, term.A
		}
	}
	cm.sbIdx[p] = int32(len(cm.blocks))
	cm.blocks = append(cm.blocks, b)
	return b
}

// Next returns the block starting at pc, which must be one of b's two
// successors — its Target, or entry+Len after a conditional terminal —
// or nil when none does; sp is the depth b leaves. A found block is
// memoized on b, so a chain step skips the index; like a block, a
// successor is a pure function of (Code, pc), so the memo never goes
// stale.
func (cm *CompiledMethod) Next(b *Superblock, pc, sp int) *Superblock {
	memo := &b.fall
	if int32(pc) == b.Target {
		memo = &b.taken
	}
	if *memo == nil {
		*memo = cm.Block(pc, sp)
	}
	return *memo
}
