package jit

import (
	"testing"

	"herajvm/internal/classfile"
)

// shareVariant is one way a body can differ from the base shareBody
// builds while the rest stays equal.
type shareVariant int

const (
	sameBody shareVariant = iota
	otherInstr
	moreLocals
	otherHandler
	otherTable
)

// shareBody adds a static method to c: a switch on its argument, a
// straight-line run under an exception handler, and a return. The
// variant changes exactly one thing the equality key covers.
func shareBody(c *classfile.Class, name string, v shareVariant) *classfile.Method {
	m := c.NewMethod(name, classfile.FlagStatic, classfile.Int, classfile.Int)
	a := m.Asm()
	c0, c1, def, join, mid, end, catch := a.NewLabel(), a.NewLabel(), a.NewLabel(),
		a.NewLabel(), a.NewLabel(), a.NewLabel(), a.NewLabel()
	a.LoadI(0)
	if v == otherTable {
		a.TableSwitch(0, def, c1, c0)
	} else {
		a.TableSwitch(0, def, c0, c1)
	}
	a.Bind(c0).ConstI(3).StoreI(1).Goto(join)
	a.Bind(c1).ConstI(4).StoreI(1).Goto(join)
	a.Bind(def).ConstI(5).StoreI(1)
	k := int32(7)
	if v == otherInstr {
		k = 8
	}
	a.Bind(join).LoadI(1).ConstI(k).AddI().StoreI(1)
	a.Bind(mid).LoadI(1).Ret()
	a.Bind(end)
	a.Bind(catch).Pop().ConstI(-1).Ret()
	if v == otherHandler {
		a.Catch(join, end, catch, nil)
	} else {
		a.Catch(join, mid, catch, nil)
	}
	a.MustBuild()
	if v == moreLocals {
		m.MaxLocals++
	}
	return m
}

// TestEqualBodiesShare holds the interning rule: methods of one compiler
// whose bodies are equal share one Code slice and one block table, so a
// block lowered through either is the other's; a body that differs in
// anything the key covers, or one lowered by another compiler, is its
// own.
func TestEqualBodiesShare(t *testing.T) {
	ppe, spe, _ := newCompilers(t)
	p := classfile.NewProgram()
	ca, cb := p.NewClass("A", nil), p.NewClass("B", nil)
	base, twin := shareBody(ca, "f", sameBody), shareBody(cb, "f", sameBody)
	variants := map[string]*classfile.Method{
		"one changed instruction": shareBody(ca, "instr", otherInstr),
		"more locals":             shareBody(ca, "locals", moreLocals),
		"another handler range":   shareBody(ca, "handler", otherHandler),
		"another switch table":    shareBody(ca, "table", otherTable),
	}
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	compile := func(c *Compiler, m *classfile.Method) *CompiledMethod {
		t.Helper()
		cm, err := c.Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		return cm
	}
	a, b := compile(spe, base), compile(spe, twin)
	if a == b || a.body != b.body || &a.Code[0] != &b.Code[0] {
		t.Fatalf("equal bodies on one compiler: Code %p and %p, body %p and %p; want one shared",
			&a.Code[0], &b.Code[0], a.body, b.body)
	}
	if a.Addr == b.Addr || a.M == b.M {
		t.Fatalf("sharers must keep their own method and code address: %#x and %#x", a.Addr, b.Addr)
	}
	// Each probe, through either method, lowers for both.
	var lowered [2]int
	for pc := range a.Code {
		if a.body.sbIdx[pc] >= 0 {
			continue // no pending entry here
		}
		first, other := a, b
		if pc%2 == 1 {
			first, other = b, a
		}
		if other.Lowered(pc) != nil {
			t.Fatalf("pc %d: a block is lowered before its first probe", pc)
		}
		blk := blockAt(first, pc)
		if other.Lowered(pc) != blk || blockAt(other, pc) != blk {
			t.Fatalf("pc %d: the block lowered through one sharer is not the other's", pc)
		}
		if blk != nil {
			lowered[pc%2]++
		}
	}
	if lowered[0] == 0 || lowered[1] == 0 {
		t.Fatalf("blocks lowered through each sharer: %v; the check is vacuous", lowered)
	}

	// A variant gets a body of its own, and still does when the hash
	// collides: filed under the variant's hash, the base body must fail
	// the full comparison.
	for name, m := range variants {
		if cm := compile(spe, m); cm.body == a.body || &cm.Code[0] == &a.Code[0] {
			t.Errorf("%s: shares the base body", name)
		}
		_, c, _ := newCompilers(t)
		bd := compile(c, base).body
		low, err := c.lower(m)
		if err != nil {
			t.Fatal(err)
		}
		_, h := c.find(low)
		c.bodies[h] = bd
		if cm := compile(c, m); cm.body == bd {
			t.Errorf("%s: shares the base body filed under its hash", name)
		}
	}
	// Whatever the bodies, another compiler has its own: a second SPE
	// compiler (another VM's) and the PPE's (another kind).
	_, spe2, _ := newCompilers(t)
	for _, c := range []*Compiler{spe2, ppe} {
		if cm := compile(c, base); cm.body == a.body || &cm.Code[0] == &a.Code[0] {
			t.Errorf("the %v compiler of another VM or kind shares the base body", c.Target())
		}
	}
}
