package jit

import (
	"slices"

	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// EagerSuperblocks is the reference the on-demand lowering is tested
// against: discovery as it was before blocks became pending, lowering
// the suffix at every entry of every run on the spot into a dense
// per-index table (Len 0 = no block), each in a fresh scratch — so
// comparing against it also shows a reused scratch carries nothing from
// block to block. An entry is a run's head, a jump target (collected
// into a set from the branches, switch tables and handlers), or the
// index just past a memory instruction. It shares nothing with
// discoverSuperblocks and lowerBlock but the admissibility predicates
// and microCompiler.compile. depths[p] is the operand-stack depth a
// block at p is lowered for.
func EagerSuperblocks(cm *CompiledMethod, depths []int) []Superblock {
	code := cm.Code
	sb := make([]Superblock, len(code))
	target := make(map[int]bool)
	for _, in := range code {
		switch in.Op {
		case isa.OpGoto:
			target[int(in.A)] = true
		case isa.OpIf, isa.OpIfCmpI, isa.OpIfCmpRef, isa.OpIfNull, isa.OpTableSwitch, isa.OpLookupSwitch:
			target[int(in.B)] = true
		}
		if in.Op == isa.OpTableSwitch || in.Op == isa.OpLookupSwitch {
			for _, t := range cm.Tables[in.C] {
				target[int(t)] = true
			}
		}
	}
	for _, h := range cm.Handlers {
		target[h.Target] = true
	}
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
			if guardedDivOp(in.Op) || memOp(in.Op) ||
				p > s && !target[p] && !memOp(code[p-1].Op) {
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

// LowerOnly runs the bytecode-to-Code lowering alone and keeps its Code
// as a new body does — Compile without the body index, superblock
// discovery, the code-region allocation and the registry — so a test can
// price what Compile adds on top of it.
func (c *Compiler) LowerOnly(m *classfile.Method) error {
	cm, err := c.lower(m)
	if err == nil {
		cm.Code = slices.Clone(cm.Code)
	}
	return err
}

// PendingBlocks counts the entries of cm no probe has lowered yet.
func (cm *CompiledMethod) PendingBlocks() int {
	n := 0
	for _, i := range cm.body.sbIdx {
		if i < 0 {
			n++
		}
	}
	return n
}
