package vm

import (
	"herajvm/internal/cell"
	"herajvm/internal/isa"
	"herajvm/internal/jit"
)

// This file is the superblock fast path: execute consults the compiled
// method's memoized superblocks (jit.Superblock) and, when the whole
// block provably fits inside the quantum, applies its cost vector in one
// step and replays its effects from the block's slot-addressed micro-ops.
// The replay must be byte-identical to per-instruction stepping — the
// Figure-4 golden and the differential tests pin that contract — so it
// defines no semantics of its own: arithmetic goes through isa.Eval,
// memory through memAccess and branches through branch, the functions
// step itself calls. Only the operand plumbing differs.

// fastForward applies one memoized superblock — core clock, per-class
// cycle counters, retired instructions and the per-method monitor
// counters advance by the block's precomputed vector (the exact totals
// per-instruction stepping would produce), then the block's stack and
// local effects replay and the PC lands on the block's target — and
// then chains straight into the next block when one starts at the new PC
// and passes the same guard the executor applies. Anything else at the
// new PC (a memory instruction between blocks, a call) is the
// executor's to step. Every block in the chain charges, checks the
// deadline, and mutates state exactly as the reference path would — the
// fusion sheds only host-level dispatch overhead, never a simulated
// event.
func (vm *VM) fastForward(core *cell.Core, t *Thread, f *Frame, b *jit.Superblock, deadline uint64) {
	for {
		// Cycles/ClassCycles/FirstLen cover the block's first pure
		// segment (the whole block when it absorbs no memory
		// instructions); the replay charges each absorbed memory
		// instruction and its following segment as it crosses them.
		core.FastForward(b.Cycles, &b.ClassCycles, uint64(b.FirstLen))
		f.chargeVec(&b.ClassCycles)
		entry := f.PC
		done, err := vm.runMicro(core, f, b, deadline)
		if err != nil {
			vm.raise(core, t, err)
			return
		}
		if !done {
			// Quantum expired at a memory boundary inside the block: the
			// replay restored exact stepped state at the boundary PC, and
			// the dispatcher takes over from there.
			return
		}
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
		nb := f.CM.Block(f.PC)
		if nb == nil || core.Now+nb.Cycles >= deadline {
			return
		}
		b = nb
	}
}

// microVal reads a micro-op operand: a non-negative value is a stack
// slot (relative to the block's entry SP, pre-sliced by the caller), a
// negative one a local, and jit.MicroImm the op's immediate.
func microVal(stack, locals []uint64, o int32, imm uint64) uint64 {
	if o >= 0 {
		return stack[o]
	}
	if o == jit.MicroImm {
		return imm
	}
	return locals[-o-1]
}

func microStore(stack, locals []uint64, d int32, v uint64) {
	if d >= 0 {
		stack[d] = v
	} else {
		locals[-d-1] = v
	}
}

// microSync restores the exact stepped frame state at one memory
// boundary for an early exit (quantum expiry after the instruction, or
// its trap): it lands the boundary's shadow materialisations, the live
// values below the instruction's operands. Both exits leave the
// operands popped, so their slots are dead.
func microSync(f *Frame, b *jit.Superblock, bd *jit.MemBound, base int) {
	stack := f.Stack[base:]
	locals := f.Locals
	for i := bd.MatLo; i < bd.MatHi; i++ {
		m := &b.Mats[i]
		if m.Code == jit.MMovImm {
			microStore(stack, locals, m.D, m.Imm)
		} else {
			microStore(stack, locals, m.D, microVal(stack, locals, m.A, m.Imm))
		}
	}
}

// microSeg charges the pure segment that follows memory boundary bi,
// or aborts the replay at the segment's first instruction when the
// whole segment cannot complete inside the quantum — the dispatcher
// then resumes per-instruction from exact state, so deadline semantics
// are unchanged (the entry guard applies the same conservatism to a
// block's first segment).
func (vm *VM) microSeg(core *cell.Core, f *Frame, b *jit.Superblock, bd *jit.MemBound,
	base, bi int, deadline uint64) bool {

	sg := &b.Segs[bi]
	if core.Now+sg.Cycles >= deadline {
		microSync(f, b, bd, base)
		f.PC++ // runMicro left it on the memory instruction
		f.SP = base + int(bd.SPAfter)
		return false
	}
	core.FastForwardTail(sg.Cycles, &sg.ClassCycles, uint64(sg.Len))
	f.chargeVec(&sg.ClassCycles)
	return true
}

// runMicro replays a block's slot-addressed micro-ops: moves, then
// arithmetic through isa.Eval (a guarded divide's divisor is a nonzero
// constant, so ok is always true here), then memory. Intermediate slots
// above the final SP may hold garbage, exactly as they may after
// stepping.
//
// A memory micro-op runs the executor's per-instruction sequence —
// static charge, retired-instruction count — with f.PC on the
// instruction, then memAccess on symbolically read operands. The
// executor's deadline check before the instruction cannot fire here:
// the entry and chain guards leave Now < deadline after the first
// segment, and microSeg hands back before any later boundary could see
// otherwise. runMicro returns done=false when the replay handed back to
// the dispatcher mid-block (quantum expiry after a boundary — frame
// state is exact at f.PC), and a non-nil error for a trap, which the
// caller raises exactly as the executor would. On done=true the caller
// sets the PC.
func (vm *VM) runMicro(core *cell.Core, f *Frame, b *jit.Superblock, deadline uint64) (bool, error) {
	entry, base := f.PC, f.SP
	stack := f.Stack[base:]
	locals := f.Locals
	bi := 0
	for i := range b.Micro {
		m := &b.Micro[i]
		switch m.Code {
		case jit.MMov:
			microStore(stack, locals, m.D, microVal(stack, locals, m.A, m.Imm))
		case jit.MMovImm:
			microStore(stack, locals, m.D, m.Imm)

		case isa.OpALoad, isa.OpAStore, isa.OpArrayLen,
			isa.OpGetField, isa.OpPutField, isa.OpGetStatic, isa.OpPutStatic:
			bd := &b.Bounds[bi]
			f.PC = entry + int(bd.RelIdx)
			f.retire(core, bd.Class, uint64(bd.Cost))
			var z uint64
			if m.Code == isa.OpAStore {
				z = microVal(stack, locals, m.D, m.Imm)
			}
			v, err := vm.memAccess(core, f, m.Code, bd.Kind, bd.Flags,
				microVal(stack, locals, m.A, m.Imm), microVal(stack, locals, m.B, m.Imm), z)
			if err != nil {
				microSync(f, b, bd, base)
				f.SP = base + int(bd.SPTrap)
				return false, err
			}
			if bd.SPAfter > bd.SPTrap { // a load: its result sits one above the popped operands
				stack[m.D] = v
			}
			if !vm.microSeg(core, f, b, bd, base, bi, deadline) {
				return false, nil
			}
			bi++

		default:
			v, _ := isa.Eval(m.Code, microVal(stack, locals, m.A, m.Imm),
				microVal(stack, locals, m.B, m.Imm), int32(uint32(m.Imm)))
			microStore(stack, locals, m.D, v)
		}
	}

	f.SP = base + int(b.StackDelta)
	return true, nil
}
