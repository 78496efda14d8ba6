package jit

import (
	"math"

	"herajvm/internal/isa"
)

// This file lowers a superblock's stack-machine instructions into
// frame-addressed micro-ops at discovery time, so the executor's fast
// path can replay a block without per-instruction operand-stack
// bookkeeping. The lowering is a static stack-to-slot conversion: the
// compiler tracks a symbolic operand stack, folds constants into
// immediate operands, forwards LoadLocal/StoreLocal through direct
// local addressing, and sinks a result produced immediately before a
// StoreLocal straight into the local. A typical
// `LoadLocal a; LoadLocal b; MulI; StoreLocal c` sequence becomes the
// single micro-op `local c <- local a * local b`.
//
// The replay contract is byte-identity with the reference interpreter:
// after a block replays, frame state (locals and operand stack up to
// the final SP) must equal what per-instruction stepping produces.
// A suffix the lowering cannot prove equivalent — one consuming
// operands pushed before its entry — makes compile report ok=false; no
// block then starts at that index and the interpreter steps those
// instructions, so correctness never depends on lowering success.

// MicroOp is one frame-addressed operation. Kind is what the replay
// does — a move, an absorbable memory op, or arithmetic — and Code the
// isa opcode it applies (none for a move): arithmetic is evaluated by
// isa.Eval, so lowering adds no second definition of any op's
// semantics. D, A and B address the frame's value array, which holds
// the locals followed by the operand stack: local i is slot i and the
// block's stack position p is slot MaxLocals+EntrySP+p. The sentinel
// MicroImm (operands only) selects the Imm field instead. At most one
// of A/B is MicroImm, so one Imm field serves both; the float compares
// repurpose Imm for their NaN result and never take immediate
// operands. One-operand arithmetic carries B = A, so the replay reads
// both operands without testing the arity.
//
// Each memory micro-op is paired in order with a MemBound entry on the
// superblock; the executor advances the clock by the instruction's
// static cost, runs the interpreter's own access helper on the
// micro-op's operands (the instruction's stack operands in push order
// in A, B and — for the three-operand array store only — D, which is a
// source there; an operand the op lacks is MicroImm), and then advances
// it over the following pure segment. Loads write their result at D,
// always a stack slot: the result must sit at its stepped stack position
// in case the replay hands back at the next instruction.
type MicroOp struct {
	Code    isa.Op
	Kind    MicroKind
	D, A, B int32
	Imm     uint64
}

// MicroKind is what the replay switches on: dense small values, so the
// switch compiles to a jump table. It fits MicroOp's padding.
type MicroKind uint8

// The micro-op kinds: the two moves, the absorbable memory ops, the
// arithmetic ops the replay evaluates through the helpers isa.Eval
// itself calls, and every other arithmetic op (through isa.Eval).
const (
	KEval   MicroKind = iota
	KMov              // D <- A (raw 64-bit copy)
	KMovImm           // D <- Imm
	KMem
	KAddI
	KAddD
	KSubD
	KMulD
)

// arithKinds holds the arithmetic ops with a replay case of their own;
// every other one is KEval.
var arithKinds = map[isa.Op]MicroKind{isa.OpAddI: KAddI, isa.OpAddD: KAddD, isa.OpSubD: KSubD, isa.OpMulD: KMulD}

// MicroImm marks an operand that reads MicroOp.Imm.
const MicroImm int32 = math.MinInt32

// Symbolic value kinds tracked on the compile-time stack.
const (
	symImm   uint8 = iota // a constant; value in sym.imm
	symLocal              // the current runtime value of local sym.idx
	symSlot               // a value materialised at stack slot sym.idx
)

type sym struct {
	kind uint8
	idx  int32 // local index (symLocal) or stack slot (symSlot)
	imm  uint64
}

// microCompiler lowers one block at a time into buffers it keeps
// between blocks: compile resets their lengths, builds into them and
// hands back exact-size copies, so what a lowered block retains is its
// own content and not the append-doubled capacity it was built in. The
// process has one, the body table's, used under its lock (see bodies).
//
// The central invariant is that a
// symSlot's slot index never exceeds its current stack position (new
// values materialise at their own position, Dup copies upward, and the
// reorderings that would move a value below its slot — Swap, DupX —
// are not pure ops: they end a run), so a result written at position d
// can never clobber a slot a live lower value still references.
//
// A second invariant backs the shadow materialisations: a live symSlot
// at position p with backing slot q < p only arises from Dup-copying
// the entry at position q, which stays live (and identical) below it —
// stack discipline pops the copy first — so slot q still holds the
// value whenever the shadow mat replays.
type microCompiler struct {
	micro  []MicroOp
	vstack []sym
	base   int32 // the frame slot of the block's stack position 0
	ok     bool

	// Memory-absorption state: the per-boundary metadata, shadow
	// materialisations for abort/trap exits, the static cost of the
	// current pure segment and of the first one, and the whole block's
	// class vector. noSink bars result-sinking across a memory micro-op
	// (its result must land at its stack position: a quantum expiry
	// right after it resumes before any StoreLocal).
	bounds   []MemBound
	mats     []MicroOp
	segCyc   uint64
	firstCyc uint64
	cls      [isa.NumClasses]uint64
	noSink   int
}

// microBlock is compile's result: the lowered replay program plus the
// cost structure discovery copies onto the Superblock.
type microBlock struct {
	Micro []MicroOp
	// StackDelta is the block's net operand-stack growth in slots, a
	// conditional terminal's pops included.
	StackDelta int32

	Bounds []MemBound
	Mats   []MicroOp

	// FirstCycles is the first pure segment's static cost (the whole
	// block's when Bounds is empty); Class is the whole block's static
	// cost by operation class.
	FirstCycles uint64
	Class       [isa.NumClasses]uint64
}

func (c *microCompiler) fail() { c.ok = false }

func (c *microCompiler) push(v sym) { c.vstack = append(c.vstack, v) }

// pop fails the compile when the block would consume operands it did
// not push (a block entered mid-expression — a run's head after a
// stepped instruction, a join's jump target, the index past a load —
// can; it gets no block and is stepped).
func (c *microCompiler) pop() sym {
	if len(c.vstack) == 0 {
		c.fail()
		return sym{kind: symImm}
	}
	v := c.vstack[len(c.vstack)-1]
	c.vstack = c.vstack[:len(c.vstack)-1]
	return v
}

// matLocal materialises every live symbolic reference to local i into
// its own stack slot; it must run before any micro-op writes local i,
// because those symbols denote the local's pre-write value.
func (c *microCompiler) matLocal(i int32) {
	for p := range c.vstack {
		v := &c.vstack[p]
		if v.kind == symLocal && v.idx == i {
			c.micro = append(c.micro, MicroOp{Kind: KMov, D: c.slot(int32(p)), A: i})
			*v = sym{kind: symSlot, idx: int32(p)}
		}
	}
}

// slot returns the frame slot of the block's stack position p.
func (c *microCompiler) slot(p int32) int32 { return c.base + p }

// operand renders a symbolic value as a micro-op operand. A symImm
// needs the shared Imm field; the caller materialises one side first
// when both operands are immediate.
func (c *microCompiler) operand(v sym) (o int32, imm uint64) {
	switch v.kind {
	case symImm:
		return MicroImm, v.imm
	case symLocal:
		return v.idx, 0
	default:
		return c.slot(v.idx), 0
	}
}

// materialise forces a symbolic value into stack slot `at` and returns
// the updated symbol.
func (c *microCompiler) materialise(v sym, at int32) sym {
	switch v.kind {
	case symImm:
		c.micro = append(c.micro, MicroOp{Kind: KMovImm, D: c.slot(at), Imm: v.imm})
	case symLocal:
		c.micro = append(c.micro, MicroOp{Kind: KMov, D: c.slot(at), A: v.idx})
	default:
		if v.idx != at {
			c.micro = append(c.micro, MicroOp{Kind: KMov, D: c.slot(at), A: c.slot(v.idx)})
		}
	}
	return sym{kind: symSlot, idx: at}
}

// arith lowers a one- or two-operand arithmetic op (n is its
// isa.Arity). The float compares pass their NaN result through Imm, so
// immediate operands are materialised for them.
func (c *microCompiler) arith(in isa.Instr, n int) {
	// A one-operand op's micro-op carries B = A; the constant b stands
	// in so a constant operand is materialised as for two.
	b := sym{kind: symImm}
	if n == 2 {
		b = c.pop()
	}
	a := c.pop()
	if !c.ok {
		return
	}
	d := int32(len(c.vstack))
	cmpNaN := in.Op == isa.OpCmpF || in.Op == isa.OpCmpD
	if a.kind == symImm && (b.kind == symImm || cmpNaN) {
		a = c.materialise(a, d)
	}
	if b.kind == symImm && cmpNaN {
		b = c.materialise(b, d+1)
	}
	oa, imm := c.operand(a)
	ob := oa
	if n == 2 {
		var immB uint64
		ob, immB = c.operand(b)
		imm |= immB
	}
	if cmpNaN {
		imm = uint64(uint32(in.A))
	}
	c.micro = append(c.micro, MicroOp{Code: in.Op, Kind: arithKinds[in.Op], D: c.slot(d), A: oa, B: ob, Imm: imm})
	c.push(sym{kind: symSlot, idx: d})
}

// storeLocal lowers StoreLocal i, sinking the producing micro-op's
// destination straight into the local when the popped value was
// produced by the immediately preceding micro-op and nothing else
// references its slot.
func (c *microCompiler) storeLocal(i int32) {
	v := c.pop()
	if !c.ok {
		return
	}
	mark := len(c.micro)
	c.matLocal(i)
	switch v.kind {
	case symImm:
		c.micro = append(c.micro, MicroOp{Kind: KMovImm, D: i, Imm: v.imm})
	case symLocal:
		if v.idx != i {
			c.micro = append(c.micro, MicroOp{Kind: KMov, D: i, A: v.idx})
		}
	default:
		sink := len(c.micro) == mark && mark > c.noSink && c.micro[mark-1].D == c.slot(v.idx)
		if sink {
			for p := range c.vstack {
				if s := c.vstack[p]; s.kind == symSlot && s.idx == v.idx {
					sink = false
					break
				}
			}
		}
		if sink {
			c.micro[mark-1].D = i
		} else {
			c.micro = append(c.micro, MicroOp{Kind: KMov, D: i, A: c.slot(v.idx)})
		}
	}
}

// closeSeg ends the current pure segment at a memory boundary or the
// block's end: the first segment's cost is the block's entry clock
// advance, a later one's the SegCycles of the boundary before it.
func (c *microCompiler) closeSeg() {
	if len(c.bounds) == 0 {
		c.firstCyc = c.segCyc
	} else {
		c.bounds[len(c.bounds)-1].SegCycles = c.segCyc
	}
	c.segCyc = 0
}

// memBoundary lowers one absorbable memory instruction at block-
// relative index rel. It closes the current pure segment, records the
// shadow materialisations an abort or trap needs to rebuild exact
// stepped state, and emits the memory micro-op with symbolic operands
// (the happy path never round-trips them through their stack slots).
func (c *microCompiler) memBoundary(rel int32, in isa.Instr) {
	npops, loads := in.Op.MemShape()
	if len(c.vstack) < npops {
		c.fail() // operands from before the block entry: suffix bails
		return
	}
	opStart := len(c.vstack) - npops
	// One shared Imm field per micro-op: materialise all but one
	// immediate operand.
	imms := 0
	for i := opStart; i < len(c.vstack); i++ {
		if c.vstack[i].kind == symImm {
			imms++
		}
	}
	for i := opStart; i < len(c.vstack) && imms > 1; i++ {
		if c.vstack[i].kind == symImm {
			c.vstack[i] = c.materialise(c.vstack[i], int32(i))
			imms--
		}
	}
	// Shadow materialisations: every live entry below the operands not
	// already at its stack position. An early exit leaves the operands
	// popped (a trap) or replaced by the result (a resume at the next
	// instruction), so their own slots need none.
	matLo := int32(len(c.mats))
	for i, v := range c.vstack[:opStart] {
		if v.kind == symSlot && v.idx == int32(i) {
			continue
		}
		switch v.kind {
		case symImm:
			c.mats = append(c.mats, MicroOp{Kind: KMovImm, D: c.slot(int32(i)), Imm: v.imm})
		case symLocal:
			c.mats = append(c.mats, MicroOp{Kind: KMov, D: c.slot(int32(i)), A: v.idx})
		default:
			c.mats = append(c.mats, MicroOp{Kind: KMov, D: c.slot(int32(i)), A: c.slot(v.idx)})
		}
	}
	matHi := int32(len(c.mats))
	var ops [3]sym
	for i := npops - 1; i >= 0; i-- {
		ops[i] = c.pop()
	}
	m := MicroOp{Code: in.Op, Kind: KMem, D: c.slot(int32(opStart)), A: MicroImm, B: MicroImm}
	enc := func(v sym) int32 {
		o, im := c.operand(v)
		if o == MicroImm {
			m.Imm = im
		}
		return o
	}
	if npops >= 1 {
		m.A = enc(ops[0])
	}
	if npops >= 2 {
		m.B = enc(ops[1])
	}
	if npops == 3 {
		m.D = enc(ops[2]) // the stored element: D is a source here
	}
	c.micro = append(c.micro, m)
	c.noSink = len(c.micro)
	npush := 0
	if loads {
		npush = 1
		c.push(sym{kind: symSlot, idx: int32(opStart)})
	}

	c.closeSeg()
	c.bounds = append(c.bounds, MemBound{
		RelIdx: rel, Cost: uint32(in.Cost),
		Kind: in.A, Flags: in.B,
		SPTrap: int32(opStart), SPAfter: int32(opStart + npush),
		MatLo: matLo, MatHi: matHi,
	})
}

// compile lowers a block's instructions. term is the block's
// control terminal when it has one (goto or conditional branch): it
// contributes cost and an instruction to the final segment but emits
// no micro-op — the executor applies its effect from Target. base is
// the frame slot of the block's entry stack position (MaxLocals plus
// the entry depth). It returns ok=false when the block contains a
// pattern the lowering does not model.
func (c *microCompiler) compile(code []isa.Instr, term *isa.Instr, base int32) (mb microBlock, ok bool) {
	*c = microCompiler{
		micro: c.micro[:0], vstack: c.vstack[:0],
		bounds: c.bounds[:0], mats: c.mats[:0],
		base: base, ok: true,
	}
	for idx, in := range code {
		c.cls[in.Op.Class()] += uint64(in.Cost)
		if memOp(in.Op) {
			c.memBoundary(int32(idx), in)
			if !c.ok {
				return microBlock{}, false
			}
			continue
		}
		c.segCyc += uint64(in.Cost)
		switch in.Op {
		case isa.OpNop, isa.OpGoto:

		case isa.OpPushConst:
			c.push(sym{kind: symImm, imm: uint64(uint32(in.A)) | uint64(uint32(in.B))<<32})
		case isa.OpLoadLocal:
			c.push(sym{kind: symLocal, idx: in.A})
		case isa.OpStoreLocal:
			c.storeLocal(in.A)
		case isa.OpIncLocal:
			c.matLocal(in.A)
			c.micro = append(c.micro, MicroOp{
				Code: isa.OpAddI, Kind: KAddI, D: in.A, A: in.A,
				B: MicroImm, Imm: uint64(uint32(in.B)),
			})
		case isa.OpPop:
			c.pop()
		case isa.OpPop2:
			c.pop()
			c.pop()
		case isa.OpDup:
			if len(c.vstack) == 0 {
				c.fail()
				break
			}
			c.push(c.vstack[len(c.vstack)-1])
		case isa.OpDup2:
			if len(c.vstack) < 2 {
				c.fail()
				break
			}
			b := c.vstack[len(c.vstack)-1]
			a := c.vstack[len(c.vstack)-2]
			c.push(a)
			c.push(b)

		default:
			if n := in.Op.Arity(); n != 0 {
				c.arith(in, n)
			} else {
				c.fail() // not a pure op: discovery should never admit it
			}
		}
		if !c.ok {
			return microBlock{}, false
		}
	}

	// The control terminal belongs to the final segment: its static
	// cost is spent with the block's tail even though its effect is
	// applied from Target. A conditional one pops its comparison
	// operands off the block's final stack.
	delta := int32(len(c.vstack))
	if term != nil {
		c.segCyc += uint64(term.Cost)
		c.cls[term.Op.Class()] += uint64(term.Cost)
		switch term.Op {
		case isa.OpIf, isa.OpIfNull:
			delta--
		case isa.OpIfCmpI, isa.OpIfCmpRef:
			delta -= 2
		}
	}
	c.closeSeg()

	// Epilogue: materialise surviving symbolic stack values into their
	// positions (processing upward — a non-identity copy only ever reads
	// a slot whose position holds it identically, per the compiler
	// invariant).
	for p, v := range c.vstack {
		if v.kind != symSlot || v.idx != int32(p) {
			c.materialise(v, int32(p))
		}
	}
	// The block keeps exact-size copies, the two micro-op lists in one
	// array.
	ops := make([]MicroOp, len(c.micro)+len(c.mats))
	return microBlock{
		Micro: carve(&ops, c.micro), Mats: carve(&ops, c.mats),
		Bounds: append([]MemBound(nil), c.bounds...), StackDelta: delta,
		FirstCycles: c.firstCyc, Class: c.cls,
	}, true
}

// carve copies src into the front of *buf and returns that copy with
// its capacity clipped, advancing *buf past it.
func carve[T any](buf *[]T, src []T) []T {
	n := copy(*buf, src)
	out := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return out
}
