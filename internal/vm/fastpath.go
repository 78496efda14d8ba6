package vm

import (
	"herajvm/internal/cell"
	"herajvm/internal/isa"
	"herajvm/internal/jit"
)

// This file is the superblock fast path: execute consults the compiled
// method's memoized superblocks (jit.Superblock) and, when a block's
// first segment provably fits inside the quantum, replays the block
// from its micro-ops instead of stepping it. The replay must be
// byte-identical to per-instruction stepping — the Figure-4 golden and
// the differential tests pin that contract — so it defines no semantics
// of its own: arithmetic goes through isa.Eval, memory through
// memAccess and branches through branch, the functions step itself
// calls. Only the operand plumbing and the billing differ.
//
// The operand plumbing: a micro-op names frame slots — indices into
// the frame's one value array, locals first, then the operand stack —
// fixed when the block was lowered for the stack depth at its entry.
// The verifier gives every index one depth, so a frame reaching the
// entry has it; the executor still enters a block only at its EntrySP,
// and a chained successor's depth follows from its predecessor's. The
// replay switches on each micro-op's dense Kind byte.
//
// When the replay bills: the core clock advances as the replay goes —
// a block's first segment at entry, then each absorbed memory
// instruction's static cost before its access and the pure segment
// after it — because the memory system, the bus and the deadline all
// read the clock. Everything else a block bills (its per-class cycle
// vector, retired and fast-forwarded instructions, the block count, the
// method's monitor counters) adds up in a chainBill and settles into
// the core and the frame's counters once, when the chain ends. Nothing
// reads those counters while a chain runs: the placement policies and
// reports read them at scheduling and report time. The dynamic charges
// of memAccess and branch bill at once, as they do when stepping.

// chainBill is what a chain of replayed blocks owes the core's and the
// method's counters.
type chainBill struct {
	classes                  [isa.NumClasses]uint64
	instrs, ffInstrs, blocks uint64
}

// block adds one completed block: its whole class vector, and Len
// retired instructions, all fast-forwarded but its memory instructions.
func (bill *chainBill) block(b *jit.Superblock) {
	for i, n := range &b.ClassCycles {
		bill.classes[i] += n
	}
	bill.instrs += uint64(b.Len)
	bill.ffInstrs += uint64(b.Len) - uint64(len(b.Bounds))
	bill.blocks++
}

// prefix adds a block the replay left at memory boundary bi (a trap in
// its access, or a deadline before the segment after it). What retired
// is the block's code (which starts at the block's entry) up to and
// including that boundary's instruction, all of it fast-forwarded but
// its bi+1 memory instructions. Each instruction bills its static cost
// by class, as the micro compiler summed the whole block's vector.
func (bill *chainBill) prefix(code []isa.Instr, b *jit.Superblock, bi int) {
	n := int(b.Bounds[bi].RelIdx) + 1
	for _, in := range code[:n] {
		bill.classes[in.Op.Class()] += uint64(in.Cost)
	}
	bill.instrs += uint64(n)
	bill.ffInstrs += uint64(n - bi - 1)
	bill.blocks++
}

// settle pays the bill into the core's counters and the frame's
// per-method monitor counters: the one place the replay writes a class
// vector.
func (bill *chainBill) settle(core *cell.Core, f *Frame) {
	core.SettleFastForward(&bill.classes, bill.instrs, bill.ffInstrs, bill.blocks)
	if f.ctr != nil {
		for i, n := range &bill.classes {
			f.ctr.Cycles[i] += n
		}
	}
}

// fastForward replays the superblock b, which starts at f.PC — its
// stack and local effects, absorbed memory instructions and terminal
// branch, the PC landing where stepping would leave it — and then
// chains straight into the next block when one starts at the new PC and
// passes the same guard the executor applies. Anything else at the new
// PC (a memory instruction between blocks, a call) is the executor's to
// step. The chain exits at that guard, where no block starts, where the
// quantum expires inside a block, or at a trap; every exit settles the
// chain's bill first. The fusion sheds host-level dispatch and
// accounting overhead, never a simulated event.
func (vm *VM) fastForward(core *cell.Core, t *Thread, f *Frame, b *jit.Superblock, deadline uint64) {
	var bill chainBill
	for {
		core.Now += b.Cycles
		entry := f.PC
		bi, err := vm.runMicro(core, f, b, deadline)
		if bi < len(b.Bounds) {
			// The replay handed back at a memory boundary — quantum
			// expiry with exact stepped state at f.PC, or a trap the
			// executor raises as stepping would.
			bill.prefix(f.CM.Code[entry:], b, bi)
			bill.settle(core, f)
			if err != nil {
				vm.raise(core, t, err)
			}
			return
		}
		bill.block(b)
		if b.End == jit.EndFall {
			f.PC = int(b.Target)
		} else {
			// A conditional terminal: its operands sit just above the
			// final SP (StackDelta already counts the branch's pops), and
			// branch keys the predictor on the branch's own PC.
			f.PC = entry + int(b.Len) - 1
			var y uint64
			if b.End == jit.EndIfCmpI || b.End == jit.EndIfCmpRef {
				y = f.Stack[f.SP+1]
			}
			vm.branch(core, f, b.End, b.Cond, b.Target, f.Stack[f.SP], y)
		}

		// Chain into the next block only under the executor's own guard.
		nb := f.CM.Next(b, f.PC, f.SP)
		if nb == nil || core.Now+nb.Cycles >= deadline {
			bill.settle(core, f)
			return
		}
		b = nb
	}
}

// microVal reads a micro-op operand: the frame slot o of vals (the
// frame's locals and operand stack, addressed together), or the op's
// immediate for jit.MicroImm.
func microVal(vals []uint64, o int32, imm uint64) uint64 {
	if o == jit.MicroImm {
		return imm
	}
	return vals[o]
}

// microSync restores the exact stepped frame state at one memory
// boundary for an early exit (quantum expiry after the instruction, or
// its trap): it lands the boundary's shadow materialisations, the live
// values below the instruction's operands. Both exits leave the
// operands popped, so their slots are dead.
func microSync(vals []uint64, b *jit.Superblock, bd *jit.MemBound) {
	for i := bd.MatLo; i < bd.MatHi; i++ {
		m := &b.Mats[i]
		if m.Kind == jit.KMovImm {
			vals[m.D] = m.Imm
		} else {
			vals[m.D] = microVal(vals, m.A, m.Imm)
		}
	}
}

// runMicro replays a block's frame-addressed micro-ops: moves, then
// arithmetic through isa.Eval (a guarded divide's divisor is a nonzero
// constant, so ok is always true here), then memory. Intermediate slots
// above the final SP may hold garbage, exactly as they may after
// stepping. The block was lowered for f.SP: the executor enters a block
// only at its EntrySP.
//
// A memory micro-op runs the executor's per-instruction sequence with
// f.PC on the instruction — the clock advances by its static cost —
// then memAccess on symbolically read operands. The executor's deadline
// check before the instruction cannot fire here: the entry and chain
// guards leave Now < deadline after the first segment, and the replay
// hands back before a later segment that would not fit, so no later
// boundary could see otherwise; that hand-back leaves exact stepped
// frame state at f.PC for the dispatcher to resume. runMicro returns
// len(b.Bounds) when the block completed (the caller sets the PC), or
// the index of the boundary it handed back at, with a non-nil error for
// a trap, which the caller raises exactly as the executor would.
func (vm *VM) runMicro(core *cell.Core, f *Frame, b *jit.Superblock, deadline uint64) (int, error) {
	entry, base := f.PC, f.SP
	vals := f.vals
	bi := 0
	for i := range b.Micro {
		m := &b.Micro[i]
		switch m.Kind {
		case jit.KMov:
			vals[m.D] = microVal(vals, m.A, m.Imm)
		case jit.KMovImm:
			vals[m.D] = m.Imm

		case jit.KMem:
			bd := &b.Bounds[bi]
			f.PC = entry + int(bd.RelIdx)
			core.Now += uint64(bd.Cost)
			var z uint64
			if m.Code == isa.OpAStore {
				z = microVal(vals, m.D, m.Imm)
			}
			v, err := vm.memAccess(core, f, m.Code, bd.Kind, bd.Flags,
				microVal(vals, m.A, m.Imm), microVal(vals, m.B, m.Imm), z)
			if err != nil {
				microSync(vals, b, bd)
				f.SP = base + int(bd.SPTrap)
				return bi, err
			}
			if bd.SPAfter > bd.SPTrap { // a load: its result sits one above the popped operands
				vals[m.D] = v
			}
			if core.Now+bd.SegCycles >= deadline {
				// The rest of the segment would not fit the quantum: hand
				// back at its first instruction, as the entry guard does.
				microSync(vals, b, bd)
				f.PC++ // it was left on the memory instruction
				f.SP = base + int(bd.SPAfter)
				return bi, nil
			}
			core.Now += bd.SegCycles
			bi++

		// Eval's hottest cases, through the helpers Eval itself calls.
		case jit.KAddI:
			vals[m.D] = isa.AddI(microVal(vals, m.A, m.Imm), microVal(vals, m.B, m.Imm))
		case jit.KAddD:
			vals[m.D] = isa.AddD(microVal(vals, m.A, m.Imm), microVal(vals, m.B, m.Imm))
		case jit.KSubD:
			vals[m.D] = isa.SubD(microVal(vals, m.A, m.Imm), microVal(vals, m.B, m.Imm))
		case jit.KMulD:
			vals[m.D] = isa.MulD(microVal(vals, m.A, m.Imm), microVal(vals, m.B, m.Imm))

		case jit.KEval:
			v, _ := isa.Eval(m.Code, microVal(vals, m.A, m.Imm),
				microVal(vals, m.B, m.Imm), int32(uint32(m.Imm)))
			vals[m.D] = v
		}
	}

	f.SP = base + int(b.StackDelta)
	return bi, nil
}
