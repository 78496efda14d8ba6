package jit

import (
	"slices"

	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// EagerSuperblocks is the reference a published body is tested against:
// discovery and lowering written out independently, lowering the block
// at every entry of every run a path reaches into a dense per-index
// table (Len 0 = no block), each in a fresh scratch — so comparing
// against it also shows a reused scratch carries nothing from block to
// block. An entry is a run's head, a jump target (collected into a set
// from the branches, switch tables and handlers), or the index just past
// a memory instruction; a block at the last kind ends just past the next
// memory instruction after which the stack is empty, or where the run
// ends. It shares nothing with discoverSuperblocks and body.lower but the
// admissibility predicates and microCompiler.compile. depths[p] is the
// operand-stack depth a block at p is lowered for, negative where no
// path reaches p.
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
		if e < len(code) {
			switch code[e].Op {
			case isa.OpGoto, isa.OpIf, isa.OpIfCmpI, isa.OpIfCmpRef, isa.OpIfNull:
				e++
			}
		}
		for p := s; p < e; p++ {
			in := code[p]
			head := p == s || target[p]
			if guardedDivOp(in.Op) || memOp(in.Op) || depths[p] < 0 || !head && !memOp(code[p-1].Op) {
				continue
			}
			end := e
			for q := p + 1; !head && q < e; q++ {
				if memOp(code[q-1].Op) && depths[q] == 0 {
					end = q
					break
				}
			}
			pe := end
			var term *isa.Instr
			switch code[end-1].Op {
			case isa.OpGoto, isa.OpIf, isa.OpIfCmpI, isa.OpIfCmpRef, isa.OpIfNull:
				pe--
				term = &code[pe]
			}
			mb, ok := new(microCompiler).compile(code[p:pe], term, int32(cm.M.MaxLocals+depths[p]))
			if !ok {
				continue
			}
			b := Superblock{
				Len: int32(end - p), Target: int32(pe),
				Cycles: mb.FirstCycles, ClassCycles: mb.Class,
				Micro: mb.Micro, StackDelta: mb.StackDelta, EntrySP: int32(depths[p]),
				Bounds: mb.Bounds, Mats: mb.Mats,
			}
			if term != nil {
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

// ResetBodies empties the process's body table, so a test that measures
// or races on a cold table starts from one.
func ResetBodies() {
	bodies.Lock()
	bodies.index, bodies.n = nil, 0
	bodies.Unlock()
}

// MaxBodies is the body table's bound, and TableBodies the number of
// bodies it holds.
const MaxBodies = maxBodies

func TableBodies() int {
	bodies.Lock()
	defer bodies.Unlock()
	return bodies.n
}

// Content returns b without its successor links, as EagerSuperblocks
// builds it.
func Content(b *Superblock) Superblock {
	c := *b
	c.taken, c.fall = nil, nil
	return c
}

// relowering is RelowerBlocks' scratch, warmed by its first call.
var relowering microCompiler

// RelowerBlocks lowers cm's body's blocks again, into a body of its own,
// as publishing the body did (depth is classfile.Depths'), and returns
// how many it made: what a test measures around it is what Compile paid
// for the blocks and the block index.
func RelowerBlocks(cm *CompiledMethod, depth []int32) int {
	src := cm.body
	bd := &body{code: src.code, tables: src.tables, keys: src.keys, handlers: src.handlers, maxLocals: src.maxLocals}
	bd.lower(depth, &relowering)
	return len(bd.blocks) - 1
}
