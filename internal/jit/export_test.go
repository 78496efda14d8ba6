package jit

import (
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// EagerSuperblocks is the reference the on-demand lowering is tested
// against: discovery as it was before blocks became pending, lowering
// every suffix of every run on the spot into a dense per-index table
// (Len 0 = no block), each in a fresh scratch — so comparing against it
// also shows a reused scratch carries nothing from block to block. It
// shares nothing with discoverSuperblocks and lowerBlock but the
// admissibility predicates and microCompiler.compile. depths[p] is the
// operand-stack depth a block at p is lowered for.
func EagerSuperblocks(cm *CompiledMethod, depths []int) []Superblock {
	code := cm.Code
	sb := make([]Superblock, len(code))
	for s := 0; s < len(code); {
		e := s
		for e < len(code) && (pureOp(code[e].Op) || memOp(code[e].Op) ||
			(e > s && guardedDiv(code, e))) {
			e++
		}
		if e == s {
			s++
			continue
		}
		pe := e
		var term *isa.Instr
		if e < len(code) {
			switch code[e].Op {
			case isa.OpGoto, isa.OpIf, isa.OpIfCmpI, isa.OpIfCmpRef, isa.OpIfNull:
				term = &code[e]
				e++
			}
		}
		for p := e - 1; p >= s; p-- {
			in := code[p]
			if guardedDivOp(in.Op) || memOp(in.Op) {
				continue
			}
			mb, ok := new(microCompiler).compile(code[p:pe], term, int32(cm.M.MaxLocals+depths[p]))
			if !ok {
				continue
			}
			b := Superblock{
				Len: int32(pe - p), Target: int32(pe),
				Cycles: mb.FirstCycles, ClassCycles: mb.Class,
				Micro: mb.Micro, StackDelta: mb.StackDelta, EntrySP: int32(depths[p]),
				Bounds: mb.Bounds, Mats: mb.Mats,
			}
			if term != nil {
				b.Len++
				if term.Op == isa.OpGoto {
					b.Target = term.A
				} else {
					b.End, b.Target, b.Cond = term.Op, term.B, term.A
				}
			}
			sb[p] = b
		}
		s = e
	}
	return sb
}

// LowerOnly runs the bytecode-to-Code lowering alone — Compile without
// superblock discovery, the code-region allocation and the registry —
// so a test can price what Compile adds on top of it.
func (c *Compiler) LowerOnly(m *classfile.Method) error {
	_, err := c.lower(m)
	return err
}

// PendingBlocks counts the entries of cm no probe has lowered yet.
func (cm *CompiledMethod) PendingBlocks() int {
	n := 0
	for _, i := range cm.sbIdx {
		if i < 0 {
			n++
		}
	}
	return n
}
