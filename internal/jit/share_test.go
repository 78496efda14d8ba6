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

// TestEqualBodiesShare holds the sharing rule: methods whose bodies are
// equal share one Code slice and one block table — on one compiler, on
// another VM's compiler of the same kind, on any compiler whose lowering
// is equal — so a block read through one is the other's; a body that
// differs in anything the key covers, or lowers differently on another
// kind, is its own.
func TestEqualBodiesShare(t *testing.T) {
	ResetBodies()
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
	blocks := 0
	for pc := range a.Code {
		if blk := a.Block(pc); blk != b.Block(pc) {
			t.Fatalf("pc %d: the sharers read different blocks", pc)
		} else if blk != nil {
			blocks++
		}
	}
	if blocks == 0 {
		t.Fatal("the shared body has no block; the check is vacuous")
	}

	// A variant gets a body of its own, and still does when the hash
	// collides: filed under the variant's hash, the base body must fail
	// the full comparison.
	for name, m := range variants {
		if cm := compile(spe, m); cm.body == a.body || &cm.Code[0] == &a.Code[0] {
			t.Errorf("%s: shares the base body", name)
		}
		low, err := spe.lower(m)
		if err != nil {
			t.Fatal(err)
		}
		bodies.Lock()
		h := hash(low)
		saved := bodies.index[h]
		bodies.index[h] = a.body
		found := find(low, h)
		bodies.index[h] = saved
		bodies.Unlock()
		if found == a.body {
			t.Errorf("%s: shares the base body filed under its hash", name)
		}
	}
	// A second SPE compiler — another VM's — shares the base body; the
	// PPE's lowers it at other costs, so it has its own.
	_, spe2, _ := newCompilers(t)
	if cm := compile(spe2, base); cm.body != a.body {
		t.Error("another VM's SPE compiler does not share the base body")
	}
	if cm := compile(ppe, base); cm.body == a.body || &cm.Code[0] == &a.Code[0] {
		t.Error("the PPE compiler shares the SPE's base body")
	}
}
