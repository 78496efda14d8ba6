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

	// taken and fall are the blocks at the two PCs the block can
	// continue at (Next): Target, and the fallthrough entry+Len of a
	// conditional terminal; nil where none starts.
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
// conditional-branch opcodes themselves; the two whose second operand
// the executor reads have names. A block never *contains* a
// branch — a conditional terminal is always its last instruction,
// counted in Len, Cycles and StackDelta (the branch pops its operands).
const (
	EndFall     = isa.OpNop
	EndIfCmpI   = isa.OpIfCmpI
	EndIfCmpRef = isa.OpIfCmpRef
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
// superblock may start there, and where it ends.
//
// Within each maximal run [s, e) of pure and absorbable-memory
// instructions — optionally extended through one terminating goto or
// conditional branch — a block may start only where control enters the
// run: its head s, a jump target (a goto or conditional target, a
// switch entry or default, a handler), or the index just past an
// absorbed memory instruction, where the replay hands back when a
// quantum expires. Each such entry p is marked with the negated length
// of its block, p-end. A block at the head or a jump target reaches the
// run's end; one just past a memory instruction ends at the next index
// just past one at an empty operand stack (depth is the verifier's, per
// index), or at e. Every other index is 0, and a thread resuming there
// (its quantum ran out before a block fit) steps with the interpreter
// to the next entry. body.lower turns each mark into a block or into 0.
// The targets are marked in the index itself (1) before the runs are
// walked, which overwrites every mark.
func discoverSuperblocks(code []isa.Instr, tables [][]int32, handlers []CompiledHandler, depth []int32) []int32 {
	idx := make([]int32, len(code))
	for _, in := range code {
		if t, _, ok := branchTarget(in); ok {
			idx[t] = 1
		} else if in.Op == isa.OpTableSwitch || in.Op == isa.OpLookupSwitch {
			idx[in.B] = 1 // the default
		}
	}
	for _, tab := range tables {
		for _, t := range tab {
			idx[t] = 1
		}
	}
	for _, h := range handlers {
		idx[h.Target] = 1
	}
	for s := 0; s < len(code); {
		// Find the maximal run of in-context-admissible instructions.
		e := s
		for e < len(code) && (pureOp(code[e].Op) || memOp(code[e].Op) ||
			(e > s && guardedDiv(code, e))) {
			e++
		}
		if e == s {
			idx[s] = 0
			s++
			continue
		}
		if e < len(code) && terminalOp(code[e].Op) {
			e++
		}
		// next is the first index past p just after a memory
		// instruction at an empty operand stack, e if there is none.
		next := e
		for p := e - 1; p >= s; p-- {
			target := p == s || idx[p] != 0
			idx[p] = 0
			// A branch may land on a guarded div with an unproven divisor
			// on the stack, and a memory instruction's operands come from
			// before the entry; blocks run through both, but neither
			// starts one.
			op := code[p].Op
			if (target || memOp(code[p-1].Op)) && !guardedDivOp(op) && !memOp(op) {
				// A thread enters just past a memory instruction only to
				// resume a run its quantum cut, so that block ends at next,
				// where such a block starts again: they tile the run
				// instead of each copying the rest of it. Every operand
				// from before the entry is popped by then, so a tile
				// lowers exactly when the suffix would.
				end := e
				if !target {
					end = next
				}
				idx[p] = int32(p - end)
			}
			if memOp(op) && (p+1 == e || depth[p+1] == 0) {
				next = p + 1
			}
		}
		s = e
	}
	return idx
}

// body is one distinct lowered method body and the superblocks lowered
// from it. It is published in the process's body table (see bodies)
// complete, and nothing writes to it after, so every CompiledMethod
// whose lowering is equal — on any compiler of any VM — points at the
// one body and reads it without a lock: a block is a function of the
// body, its entry and the verifier's depth there, all equal across the
// sharers, and names no method — the executor bills the running frame's
// own. handlers, tables and keys complete the equality key (find).
type body struct {
	code []isa.Instr
	// sbIdx says, per instruction index, which block starts there: 0
	// none, i the blocks[i]. blocks[0] is nil, so "none" needs no branch
	// of its own in Block. Four bytes an instruction.
	sbIdx     []int32
	blocks    []*Superblock
	maxLocals int32

	handlers     []CompiledHandler
	tables, keys [][]int32
	// next is the next body under the same hash in the table.
	next *body
}

// lower fills sbIdx and blocks: it lowers the block at every entry
// discovery marks that a path reaches, for the verifier's depth there
// (depth[p], -1 where no path reaches p), in mc, then links each block
// to the blocks at its two successors.
func (bd *body) lower(depth []int32, mc *microCompiler) {
	bd.sbIdx = discoverSuperblocks(bd.code, bd.tables, bd.handlers, depth)
	bd.blocks = []*Superblock{nil}
	for p, mark := range bd.sbIdx {
		bd.sbIdx[p] = 0
		if mark >= 0 || depth[p] < 0 {
			continue
		}
		if b := mc.block(bd.code, p, p-int(mark), depth[p], bd.maxLocals); b != nil {
			bd.sbIdx[p] = int32(len(bd.blocks))
			bd.blocks = append(bd.blocks, b)
		}
	}
	for p, i := range bd.sbIdx {
		if b := bd.blocks[i]; b != nil {
			b.taken = bd.blocks[bd.sbIdx[b.Target]]
			if b.End != EndFall {
				b.fall = bd.blocks[bd.sbIdx[p+int(b.Len)]]
			}
		}
	}
}

// block lowers code[p:e], the suffix of a discovered run at entry p, for
// a frame whose operand stack is sp deep. The replayable
// (micro-compilable) prefix [p, pe) excludes a trailing control
// terminal: a goto has no data effect, and a conditional branch reads
// the operands the replay leaves just above the block's final SP. The
// terminal's cost and instruction count still belong to the block's
// final segment, so the compiler receives it separately. When the micro
// lowering bails (typically an instruction consuming operands the
// suffix did not push) block returns nil and no block starts at p: the
// interpreter steps until the next entry whose suffix does lower.
func (mc *microCompiler) block(code []isa.Instr, p, e int, sp, maxLocals int32) *Superblock {
	pe := e
	var term *isa.Instr
	if terminalOp(code[e-1].Op) {
		pe--
		term = &code[pe]
	}
	mb, ok := mc.compile(code[p:pe], term, maxLocals+sp)
	if !ok {
		return nil
	}
	b := &Superblock{
		Len: int32(e - p), Target: int32(pe),
		Cycles: mb.FirstCycles, ClassCycles: mb.Class,
		Micro: mb.Micro, StackDelta: mb.StackDelta, EntrySP: sp,
		Bounds: mb.Bounds, Mats: mb.Mats,
	}
	if term != nil {
		if term.Op == isa.OpGoto {
			b.Target = term.A
		} else {
			b.End, b.Target, b.Cond = term.Op, term.B, term.A
		}
	}
	return b
}

// Block returns the superblock starting at instruction index p, or nil
// when none does. It is the executor's only way into a chain of blocks;
// since the body was published complete, it is two reads and no lock.
func (cm *CompiledMethod) Block(p int) *Superblock {
	return cm.body.blocks[cm.body.sbIdx[p]]
}

// Next returns the block starting at pc, which must be one of b's two
// successors — its Target, or entry+Len after a conditional terminal —
// or nil when none does. Both were found when b's body was lowered, so
// a chain step skips the index.
func (b *Superblock) Next(pc int) *Superblock {
	if int32(pc) == b.Target {
		return b.taken
	}
	return b.fall
}
