package classfile

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// fuzzWorld is the small fixed program FuzzVerify's methods live in: one
// class with a field of each interesting kind, callees of a few shapes,
// an interface. Every body here is valid; only the decoded method is in
// question.
type fuzzWorld struct {
	p       *Program
	c       *Class
	fields  []*Field  // last entry nil
	methods []*Method // last entry nil
	classes []*Class  // last entry nil
}

func newFuzzWorld() *fuzzWorld {
	p := NewProgram()
	c := p.NewClass("W", nil)
	iface := p.NewInterface("I")
	w := &fuzzWorld{p: p, c: c}
	w.fields = []*Field{
		c.NewField("i", Int), c.NewField("r", Ref), c.NewField("d", Double),
		c.NewStaticField("sl", Long), c.NewStaticField("sr", Ref), nil,
	}
	sum := c.NewMethod("sum", FlagStatic, Long, Int, Double)
	sum.Asm().LoadI(0).I2L().Ret().MustBuild()
	get := c.NewMethod("get", 0, Int, Ref)
	get.Asm().LoadRef(0).GetField(w.fields[0]).Ret().MustBuild()
	nop := c.NewMethod("nop", FlagStatic, Void)
	nop.Asm().RetVoid().MustBuild()
	w.methods = []*Method{sum, get, nop, iface.NewMethod("run", FlagAbstract, Ref), nil}
	w.classes = []*Class{c, iface, p.Object, nil}
	return w
}

var fuzzKinds = [...]TypeKind{Int, Long, Double, Ref}

// decodeFuzzMethod turns any byte string into a method of a fresh world
// with a hand-assigned body — nothing the assembler would have checked
// is guaranteed. Layout: a 4-byte header (static bit and return kind;
// parameter count and kinds; extra locals; handler count), 4 bytes per
// handler (from, to, target, type), then 4 bytes per instruction (op, A,
// target, operand selector). Targets and handler bounds are signed
// bytes, so they can leave the body either way. An operand selector
// below 0x80 picks the operand, which the instruction's Ref names as a
// new pool entry; from 0x80 up its low seven bits are the Ref itself,
// into whatever the pool holds by the end — an entry of any type, or
// none.
func decodeFuzzMethod(data []byte) (*fuzzWorld, *Method) {
	w := newFuzzWorld()
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	shape, params, extra, nh := next(), next(), next(), next()
	var flags MethodFlags
	if shape&1 != 0 {
		flags = FlagStatic
	}
	ret := [...]TypeKind{Void, Int, Long, Ref}[shape>>1&3]
	ps := make([]TypeKind, params&3)
	for i := range ps {
		ps[i] = fuzzKinds[params>>(2+2*i)&3]
	}
	m := w.c.NewMethod("fuzzed", flags, ret, ps...)
	m.MaxLocals = m.ArgSlots() + int(extra%5)
	if extra == 0xff {
		m.MaxLocals = m.ArgSlots() - 1 // cannot hold its own arguments
	}
	for i := 0; i < int(nh%3); i++ {
		from, to, target, typ := next(), next(), next(), next()
		m.Handlers = append(m.Handlers, Handler{
			From: int(int8(from)), To: int(int8(to)), Target: int(int8(target)),
			Type: w.classes[int(typ)%len(w.classes)],
		})
	}
	for len(data) > 0 {
		op, a, target, x := next(), next(), next(), next()
		bc := BC{
			Op: BCOp(int(op) % (NumBCOps + 1)), // one value past the last opcode
			A:  int32(int8(a)), B: int32(int8(a)),
			Target: int32(int8(target)),
			Kind:   isaElem(x % 10),
		}
		var operand any
		switch {
		case x >= 0x80:
			bc.Ref = uint16(x & 0x7f)
		case bc.Op >= BCGetField && bc.Op <= BCPutStatic:
			operand = w.fields[int(x)%len(w.fields)]
		case bc.Op >= BCInvokeVirtual && bc.Op <= BCInvokeInterface:
			operand = w.methods[int(x)%len(w.methods)]
		case bc.Op == BCNew || bc.Op == BCANewArray || bc.Op == BCInstanceOf || bc.Op == BCCheckCast:
			operand = w.classes[int(x)%len(w.classes)]
		case bc.Op == BCConstStr:
			operand = "s"
		case bc.Op == BCTableSwitch || bc.Op == BCLookupSwitch:
			// x: low two bits the table size, bit 2 drops a key, bit 3
			// leaves the table out (a nil entry). Entry i goes to
			// target + i*A, so A == 0 is a table whose entries all share
			// the default.
			sw := &Switch{Targets: make([]int32, x&3)}
			for i := range sw.Targets {
				sw.Targets[i] = bc.Target + int32(i)*bc.A
			}
			if bc.Op == BCLookupSwitch {
				sw.Keys = make([]int32, len(sw.Targets))
				for i := range sw.Keys {
					sw.Keys[i] = int32(i)
				}
				if x&4 != 0 && len(sw.Keys) > 0 {
					sw.Keys = sw.Keys[1:]
				}
			}
			operand = sw
			if x&8 != 0 {
				operand = (*Switch)(nil)
			}
		}
		if operand != nil {
			bc.Ref = uint16(len(m.Pool))
			m.Pool = append(m.Pool, operand)
		}
		m.Code = append(m.Code, bc)
	}
	return w, m
}

// fuzzSeeds are the shapes the checked-in corpus
// (testdata/fuzz/FuzzVerify/<name>) holds, encoded in the layout above;
// TestFuzzVerifySeeds holds the files to these bytes and says what each
// must do.
var fuzzSeeds = []struct {
	name string
	data []byte
	want string // substring of the Resolve error; "" = accepted
}{
	// static f(int)void, 2 locals. 0: iconst; 1: istore 1; 2: dconst;
	// 3: dstore 1; 4: iload 0; 5: ifne @2; 6: return. Local 1 is an int
	// at the loop head from above and a double round the back edge.
	{"loop-kind-conflict", []byte{
		0x01, 0x01, 1, 0,
		byte(BCConstI), 0, 0, 0, byte(BCStoreI), 1, 0, 0,
		byte(BCConstD), 0, 0, 0, byte(BCStoreD), 1, 0, 0,
		byte(BCLoadI), 0, 0, 0, byte(BCIfNE), 0, 2, 0,
		byte(BCReturnVoid), 0, 0, 0,
	}, ""},
	// static f(ref)void, handler [0,3) -> @3 any. 0: iconst; 1: istore 0;
	// 2: return; 3: (handler) pop; 4: return. The handler is entered with
	// local 0 a ref from pcs 0-1 and an int from pc 2.
	{"handler-covers-store", []byte{
		0x01, 0x01 | 3<<2, 0, 1,
		0, 3, 3, 3,
		byte(BCConstI), 0, 0, 0, byte(BCStoreI), 0, 0, 0,
		byte(BCReturnVoid), 0, 0, 0,
		byte(BCPop), 0, 0, 0, byte(BCReturnVoid), 0, 0, 0,
	}, ""},
	// static f(int)void. 0: iload 0; 1: tableswitch, 3 entries and the
	// default all @2; 2: return.
	{"switch-shared-target", []byte{
		0x01, 0x01, 0, 0,
		byte(BCLoadI), 0, 0, 0, byte(BCTableSwitch), 0, 2, 3,
		byte(BCReturnVoid), 0, 0, 0,
	}, ""},
	// static f()void. 0: return; then a tail nothing reaches: an int add
	// on an empty stack, a branch out of the body, a nil field. The
	// verifier never looks at it; the structural pass does (the JIT lowers
	// it) and stops at the branch.
	{"unreachable-tail", []byte{
		0x01, 0x00, 0, 0,
		byte(BCReturnVoid), 0, 0, 0, byte(BCAddI), 0, 0, 0,
		byte(BCGoto), 0, 100, 0, byte(BCGetField), 0, 0, 5,
	}, "pc 2 (goto): target 100 outside [0,4]"},
	// static f()void. 0: return; 1: new <nil> — what a.Goto(l).New(nil)
	// leaves behind a branch. It passed Resolve and crashed jit.lower.
	{"unreachable-nil-operand", []byte{
		0x01, 0x00, 0, 0,
		byte(BCReturnVoid), 0, 0, 0, byte(BCNew), 0, 0, 3,
	}, "pc 1 (new): nil class ref"},
	// static f()void. 0: return; 1: iadd on an empty stack. Ill-typed
	// but well-formed, and nothing reaches it: accepted, as before.
	{"unreachable-ill-typed", []byte{
		0x01, 0x00, 0, 0,
		byte(BCReturnVoid), 0, 0, 0, byte(BCAddI), 0, 0, 0,
	}, ""},
	// static f()void. 0: getstatic <nil>; 1: return.
	{"nil-operand", []byte{
		0x01, 0x00, 0, 0,
		byte(BCGetStatic), 0, 0, 5, byte(BCReturnVoid), 0, 0, 0,
	}, "nil field ref"},
	// static f(int)void. 0: iload 0; 1: ifeq @3; 2: iconst; 3: return —
	// reached with depth 1 from above, depth 0 from the branch.
	{"depth-mismatch-at-join", []byte{
		0x01, 0x01, 0, 0,
		byte(BCLoadI), 0, 0, 0, byte(BCIfEQ), 0, 3, 0,
		byte(BCConstI), 0, 0, 0, byte(BCReturnVoid), 0, 0, 0,
	}, "stack depth mismatch"},
	// A switch whose operand slot is empty, and one with a key short.
	{"switch-without-table", []byte{
		0x01, 0x01, 0, 0,
		byte(BCLoadI), 0, 0, 0, byte(BCLookupSwitch), 0, 2, 8,
		byte(BCReturnVoid), 0, 0, 0,
	}, "nil switch ref"},
	{"switch-unpaired-keys", []byte{
		0x01, 0x01, 0, 0,
		byte(BCLoadI), 0, 0, 0, byte(BCLookupSwitch), 0, 2, 2 | 4,
		byte(BCReturnVoid), 0, 0, 0,
	}, "1 keys vs 2 targets"},
	// static f()void. 0: ldc_str "s" (pool entry 0); 1: new, Ref 0 —
	// the string; 2, 3: pop; 4: return.
	{"mistyped-ref", []byte{
		0x01, 0x00, 0, 0,
		byte(BCConstStr), 0, 0, 0, byte(BCNew), 0, 0, 0x80,
		byte(BCPop), 0, 0, 0, byte(BCPop), 0, 0, 0, byte(BCReturnVoid), 0, 0, 0,
	}, "pc 1 (new): ref 0 is a string, not a class"},
	// static f()void. 0: getstatic, Ref 5 of an empty pool; 1: return.
	{"ref-outside-pool", []byte{
		0x01, 0x00, 0, 0,
		byte(BCGetStatic), 0, 0, 0x85, byte(BCReturnVoid), 0, 0, 0,
	}, "pc 0 (getstatic): ref 5 outside a pool of 0"},
}

// TestFuzzVerifySeeds: each seed decodes to the shape its name promises
// and Resolve treats it as stated.
func TestFuzzVerifySeeds(t *testing.T) {
	for _, s := range fuzzSeeds {
		file, err := os.ReadFile("testdata/fuzz/FuzzVerify/" + s.name)
		if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s.data); err != nil || string(file) != want {
			t.Errorf("%s: corpus file is %q (%v), want %q", s.name, file, err, want)
		}
		w, m := decodeFuzzMethod(s.data)
		err = w.p.Resolve()
		switch {
		case s.want == "" && err != nil:
			t.Errorf("%s: rejected: %v\n%s", s.name, err, m.Disassemble())
		case s.want != "" && (err == nil || !strings.Contains(err.Error(), s.want)):
			t.Errorf("%s: Resolve = %v, want an error naming %q", s.name, err, s.want)
		}
	}
	// The conflicts are visible where they matter: the loop's local 1 is
	// unusable at the loop head and a double again after the store; the
	// handler's local 0 is unusable on entry.
	_, m := decodeFuzzMethod(fuzzSeeds[0].data)
	if _, locals, err := KindsAt(m, 2); err != nil || locals[1] != Void {
		t.Errorf("loop head: locals %v, err %v; want local 1 void", locals, err)
	}
	if _, locals, err := KindsAt(m, 4); err != nil || locals[1] != Double {
		t.Errorf("loop body: locals %v, err %v; want local 1 double", locals, err)
	}
	_, m = decodeFuzzMethod(fuzzSeeds[1].data)
	if stack, locals, err := KindsAt(m, 3); err != nil || len(stack) != 1 || stack[0] != Ref || locals[0] != Void {
		t.Errorf("handler entry: stack %v locals %v, err %v", stack, locals, err)
	}
}

// FuzzVerify: whatever a body holds, verification ends in nil or an
// error — never a host panic, never more than len × (locals+1) steps —
// and verify.go agrees with the per-pc reference on the outcome, the
// error, MaxStack and the kinds at every pc.
func FuzzVerify(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4+8+4*64 {
			return // 64 instructions say everything a longer body would
		}
		w, m := decodeFuzzMethod(data)
		checkAgainstReference(t, m)
		if err := w.p.Resolve(); err == nil && !w.p.Resolved() {
			t.Error("Resolve returned nil without resolving")
		}
	})
}
