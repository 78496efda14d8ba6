package classfile

import (
	"fmt"
	"math"
)

// Asm builds a method body instruction by instruction. Typical use:
//
//	a := method.Asm()
//	loop := a.NewLabel()
//	a.ConstI(0)
//	a.StoreI(1)
//	a.Bind(loop)
//	... more instructions ...
//	a.MustBuild()
//
// Build attaches the code to the method and computes MaxLocals; MaxStack
// is computed later by the verifier during Program.Resolve.
//
// Instructions are assembled in a buffer borrowed from the method's
// Program (Program.spare) and the method keeps an exact-size copy, so a
// body costs what it holds rather than what append-doubling passed
// through. Labels are an assembler concern: a branch records a fix-up,
// Build writes the bound positions into the instructions, and nothing
// downstream sees a Label.
type Asm struct {
	m        *Method
	code     []BC
	fixups   []fixup
	maxLocal int
	built    bool
	err      error
	handlers []handlerSpec
}

// Label marks a bytecode position as a branch target. Labels are created
// and bound by the Asm that made them and mean nothing after its Build.
type Label struct {
	asm   *Asm
	pc    int
	bound bool
	// made is the assembler's code length when the label was created;
	// error messages name the label "L<made>".
	made int
}

// fixup is one use of a label by the instruction at pc: its Target
// (slot < 0) or entry slot of its Switch operand's Targets.
type fixup struct {
	pc, slot int32
	l        *Label
}

// Asm begins assembling the method's body. It takes the program's spare
// buffer if there is one; an Asm opened while another holds the spare
// allocates its own.
func (m *Method) Asm() *Asm {
	if m.IsNative() || m.IsAbstract() {
		// Assembler-API misuse, unreachable because every builder opens
		// bodies only on the concrete methods it just declared.
		panic(fmt.Sprintf("classfile: %s cannot have a body", m.Sig()))
	}
	p := m.Class.program
	a := &Asm{m: m, code: p.spare, maxLocal: m.ArgSlots() - 1}
	p.spare = nil
	return a
}

func (a *Asm) emit(bc BC) *Asm {
	a.code = append(a.code, bc)
	return a
}

// branch emits a one-target branch to l.
func (a *Asm) branch(op BCOp, l *Label) *Asm {
	a.use(l, -1)
	return a.emit(BC{Op: op})
}

// use records that the instruction about to be emitted refers to l.
func (a *Asm) use(l *Label, slot int) {
	if l == nil {
		a.fail("nil label")
		return
	}
	a.fixups = append(a.fixups, fixup{pc: int32(len(a.code)), slot: int32(slot), l: l})
}

func (a *Asm) local(i int) {
	if i < 0 {
		a.fail("negative local index %d", i)
	}
	if i > a.maxLocal {
		a.maxLocal = i
	}
}

func (a *Asm) fail(format string, args ...any) {
	if a.err == nil {
		a.err = fmt.Errorf("asm %s: %s", a.m.Sig(), fmt.Sprintf(format, args...))
	}
}

// NewLabel creates an unbound label.
func (a *Asm) NewLabel() *Label {
	return &Label{asm: a, pc: -1, made: len(a.code)}
}

// NewLabels creates n unbound labels (a switch's targets).
func (a *Asm) NewLabels(n int) []*Label {
	ls := make([]*Label, n)
	for i := range ls {
		ls[i] = a.NewLabel()
	}
	return ls
}

// Bind binds the label to the next instruction.
func (a *Asm) Bind(l *Label) *Asm {
	switch {
	case l == nil:
		a.fail("nil label")
		return a
	case l.asm != a:
		a.fail("label L%d belongs to %s", l.made, l.asm.m.Sig())
		return a
	case l.bound:
		a.fail("label L%d bound twice", l.made)
	}
	l.pc = len(a.code)
	l.bound = true
	return a
}

// --- constants ---

// ConstI pushes an int constant.
func (a *Asm) ConstI(v int32) *Asm { return a.emit(BC{Op: BCConstI, A: v}) }

// ConstL pushes a long constant.
func (a *Asm) ConstL(v int64) *Asm { return a.emit(BC{Op: BCConstL, W: uint64(v)}) }

// ConstF pushes a float constant.
func (a *Asm) ConstF(v float32) *Asm {
	return a.emit(BC{Op: BCConstF, W: uint64(math.Float32bits(v))})
}

// ConstD pushes a double constant.
func (a *Asm) ConstD(v float64) *Asm {
	return a.emit(BC{Op: BCConstD, W: math.Float64bits(v)})
}

// Null pushes the null reference.
func (a *Asm) Null() *Asm { return a.emit(BC{Op: BCConstNull}) }

// Str pushes an interned string literal.
func (a *Asm) Str(s string) *Asm { return a.emit(BC{Op: BCConstStr, Operand: s}) }

// --- locals ---

// LoadI pushes int local i. The other Load/Store variants follow suit.
func (a *Asm) LoadI(i int) *Asm { a.local(i); return a.emit(BC{Op: BCLoadI, A: int32(i)}) }

// LoadL pushes long local i.
func (a *Asm) LoadL(i int) *Asm { a.local(i); return a.emit(BC{Op: BCLoadL, A: int32(i)}) }

// LoadF pushes float local i.
func (a *Asm) LoadF(i int) *Asm { a.local(i); return a.emit(BC{Op: BCLoadF, A: int32(i)}) }

// LoadD pushes double local i.
func (a *Asm) LoadD(i int) *Asm { a.local(i); return a.emit(BC{Op: BCLoadD, A: int32(i)}) }

// LoadRef pushes reference local i.
func (a *Asm) LoadRef(i int) *Asm { a.local(i); return a.emit(BC{Op: BCLoadRef, A: int32(i)}) }

// StoreI pops into int local i.
func (a *Asm) StoreI(i int) *Asm { a.local(i); return a.emit(BC{Op: BCStoreI, A: int32(i)}) }

// StoreL pops into long local i.
func (a *Asm) StoreL(i int) *Asm { a.local(i); return a.emit(BC{Op: BCStoreL, A: int32(i)}) }

// StoreF pops into float local i.
func (a *Asm) StoreF(i int) *Asm { a.local(i); return a.emit(BC{Op: BCStoreF, A: int32(i)}) }

// StoreD pops into double local i.
func (a *Asm) StoreD(i int) *Asm { a.local(i); return a.emit(BC{Op: BCStoreD, A: int32(i)}) }

// StoreRef pops into reference local i.
func (a *Asm) StoreRef(i int) *Asm { a.local(i); return a.emit(BC{Op: BCStoreRef, A: int32(i)}) }

// Inc adds delta to int local i (iinc).
func (a *Asm) Inc(i int, delta int32) *Asm {
	a.local(i)
	return a.emit(BC{Op: BCInc, A: int32(i), B: delta})
}

// --- operand stack ---

// Pop discards the top value.
func (a *Asm) Pop() *Asm { return a.emit(BC{Op: BCPop}) }

// Pop2 discards the top two values.
func (a *Asm) Pop2() *Asm { return a.emit(BC{Op: BCPop2}) }

// Dup duplicates the top value.
func (a *Asm) Dup() *Asm { return a.emit(BC{Op: BCDup}) }

// DupX1 duplicates the top value beneath the second.
func (a *Asm) DupX1() *Asm { return a.emit(BC{Op: BCDupX1}) }

// DupX2 duplicates the top value beneath the third.
func (a *Asm) DupX2() *Asm { return a.emit(BC{Op: BCDupX2}) }

// Dup2 duplicates the top two values.
func (a *Asm) Dup2() *Asm { return a.emit(BC{Op: BCDup2}) }

// Swap exchanges the top two values.
func (a *Asm) Swap() *Asm { return a.emit(BC{Op: BCSwap}) }

// --- arithmetic ---

// AddI pops two ints and pushes their sum; the remaining arithmetic
// emitters follow the JVM's stack discipline in the same way.
func (a *Asm) AddI() *Asm  { return a.emit(BC{Op: BCAddI}) }
func (a *Asm) SubI() *Asm  { return a.emit(BC{Op: BCSubI}) }
func (a *Asm) MulI() *Asm  { return a.emit(BC{Op: BCMulI}) }
func (a *Asm) DivI() *Asm  { return a.emit(BC{Op: BCDivI}) }
func (a *Asm) RemI() *Asm  { return a.emit(BC{Op: BCRemI}) }
func (a *Asm) NegI() *Asm  { return a.emit(BC{Op: BCNegI}) }
func (a *Asm) ShlI() *Asm  { return a.emit(BC{Op: BCShlI}) }
func (a *Asm) ShrI() *Asm  { return a.emit(BC{Op: BCShrI}) }
func (a *Asm) UShrI() *Asm { return a.emit(BC{Op: BCUShrI}) }
func (a *Asm) AndI() *Asm  { return a.emit(BC{Op: BCAndI}) }
func (a *Asm) OrI() *Asm   { return a.emit(BC{Op: BCOrI}) }
func (a *Asm) XorI() *Asm  { return a.emit(BC{Op: BCXorI}) }

func (a *Asm) AddL() *Asm  { return a.emit(BC{Op: BCAddL}) }
func (a *Asm) SubL() *Asm  { return a.emit(BC{Op: BCSubL}) }
func (a *Asm) MulL() *Asm  { return a.emit(BC{Op: BCMulL}) }
func (a *Asm) DivL() *Asm  { return a.emit(BC{Op: BCDivL}) }
func (a *Asm) RemL() *Asm  { return a.emit(BC{Op: BCRemL}) }
func (a *Asm) NegL() *Asm  { return a.emit(BC{Op: BCNegL}) }
func (a *Asm) ShlL() *Asm  { return a.emit(BC{Op: BCShlL}) }
func (a *Asm) ShrL() *Asm  { return a.emit(BC{Op: BCShrL}) }
func (a *Asm) UShrL() *Asm { return a.emit(BC{Op: BCUShrL}) }
func (a *Asm) AndL() *Asm  { return a.emit(BC{Op: BCAndL}) }
func (a *Asm) OrL() *Asm   { return a.emit(BC{Op: BCOrL}) }
func (a *Asm) XorL() *Asm  { return a.emit(BC{Op: BCXorL}) }
func (a *Asm) CmpL() *Asm  { return a.emit(BC{Op: BCCmpL}) }

func (a *Asm) AddF() *Asm  { return a.emit(BC{Op: BCAddF}) }
func (a *Asm) SubF() *Asm  { return a.emit(BC{Op: BCSubF}) }
func (a *Asm) MulF() *Asm  { return a.emit(BC{Op: BCMulF}) }
func (a *Asm) DivF() *Asm  { return a.emit(BC{Op: BCDivF}) }
func (a *Asm) RemF() *Asm  { return a.emit(BC{Op: BCRemF}) }
func (a *Asm) NegF() *Asm  { return a.emit(BC{Op: BCNegF}) }
func (a *Asm) CmpFL() *Asm { return a.emit(BC{Op: BCCmpFL}) }
func (a *Asm) CmpFG() *Asm { return a.emit(BC{Op: BCCmpFG}) }

func (a *Asm) AddD() *Asm  { return a.emit(BC{Op: BCAddD}) }
func (a *Asm) SubD() *Asm  { return a.emit(BC{Op: BCSubD}) }
func (a *Asm) MulD() *Asm  { return a.emit(BC{Op: BCMulD}) }
func (a *Asm) DivD() *Asm  { return a.emit(BC{Op: BCDivD}) }
func (a *Asm) RemD() *Asm  { return a.emit(BC{Op: BCRemD}) }
func (a *Asm) NegD() *Asm  { return a.emit(BC{Op: BCNegD}) }
func (a *Asm) CmpDL() *Asm { return a.emit(BC{Op: BCCmpDL}) }
func (a *Asm) CmpDG() *Asm { return a.emit(BC{Op: BCCmpDG}) }

// --- conversions ---

func (a *Asm) I2L() *Asm { return a.emit(BC{Op: BCI2L}) }
func (a *Asm) I2F() *Asm { return a.emit(BC{Op: BCI2F}) }
func (a *Asm) I2D() *Asm { return a.emit(BC{Op: BCI2D}) }
func (a *Asm) L2I() *Asm { return a.emit(BC{Op: BCL2I}) }
func (a *Asm) L2F() *Asm { return a.emit(BC{Op: BCL2F}) }
func (a *Asm) L2D() *Asm { return a.emit(BC{Op: BCL2D}) }
func (a *Asm) F2I() *Asm { return a.emit(BC{Op: BCF2I}) }
func (a *Asm) F2L() *Asm { return a.emit(BC{Op: BCF2L}) }
func (a *Asm) F2D() *Asm { return a.emit(BC{Op: BCF2D}) }
func (a *Asm) D2I() *Asm { return a.emit(BC{Op: BCD2I}) }
func (a *Asm) D2L() *Asm { return a.emit(BC{Op: BCD2L}) }
func (a *Asm) D2F() *Asm { return a.emit(BC{Op: BCD2F}) }
func (a *Asm) I2B() *Asm { return a.emit(BC{Op: BCI2B}) }
func (a *Asm) I2C() *Asm { return a.emit(BC{Op: BCI2C}) }
func (a *Asm) I2S() *Asm { return a.emit(BC{Op: BCI2S}) }

// --- control flow ---

// Goto jumps unconditionally to l.
func (a *Asm) Goto(l *Label) *Asm { return a.branch(BCGoto, l) }

// IfEQ pops an int and branches to l when it is zero; the other
// conditional emitters follow the JVM's semantics likewise.
func (a *Asm) IfEQ(l *Label) *Asm { return a.branch(BCIfEQ, l) }
func (a *Asm) IfNE(l *Label) *Asm { return a.branch(BCIfNE, l) }
func (a *Asm) IfLT(l *Label) *Asm { return a.branch(BCIfLT, l) }
func (a *Asm) IfGE(l *Label) *Asm { return a.branch(BCIfGE, l) }
func (a *Asm) IfGT(l *Label) *Asm { return a.branch(BCIfGT, l) }
func (a *Asm) IfLE(l *Label) *Asm { return a.branch(BCIfLE, l) }

func (a *Asm) IfICmpEQ(l *Label) *Asm { return a.branch(BCIfICmpEQ, l) }
func (a *Asm) IfICmpNE(l *Label) *Asm { return a.branch(BCIfICmpNE, l) }
func (a *Asm) IfICmpLT(l *Label) *Asm { return a.branch(BCIfICmpLT, l) }
func (a *Asm) IfICmpGE(l *Label) *Asm { return a.branch(BCIfICmpGE, l) }
func (a *Asm) IfICmpGT(l *Label) *Asm { return a.branch(BCIfICmpGT, l) }
func (a *Asm) IfICmpLE(l *Label) *Asm { return a.branch(BCIfICmpLE, l) }

func (a *Asm) IfACmpEQ(l *Label) *Asm  { return a.branch(BCIfACmpEQ, l) }
func (a *Asm) IfACmpNE(l *Label) *Asm  { return a.branch(BCIfACmpNE, l) }
func (a *Asm) IfNull(l *Label) *Asm    { return a.branch(BCIfNull, l) }
func (a *Asm) IfNonNull(l *Label) *Asm { return a.branch(BCIfNonNull, l) }

// switchTo emits a switch whose default is def and whose table entries
// are targets, in that fix-up order.
func (a *Asm) switchTo(op BCOp, low int32, def *Label, keys []int32, targets []*Label) *Asm {
	a.use(def, -1)
	for i, l := range targets {
		a.use(l, i)
	}
	sw := &Switch{Keys: keys, Targets: make([]int32, len(targets))}
	return a.emit(BC{Op: op, A: low, Operand: sw})
}

// TableSwitch pops an index and jumps to targets[index-low], or def when
// out of range.
func (a *Asm) TableSwitch(low int32, def *Label, targets ...*Label) *Asm {
	return a.switchTo(BCTableSwitch, low, def, nil, targets)
}

// LookupSwitch pops a key and jumps to the target paired with it in
// keys/targets, or def when absent. Keys must be strictly ascending.
func (a *Asm) LookupSwitch(def *Label, keys []int32, targets []*Label) *Asm {
	if len(keys) != len(targets) {
		a.fail("lookupswitch: %d keys vs %d targets", len(keys), len(targets))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			a.fail("lookupswitch keys not strictly ascending at %d", i)
		}
	}
	return a.switchTo(BCLookupSwitch, 0, def, keys, targets)
}

// --- fields, arrays, objects ---

// field emits a field access. A nil field, or one that is not static
// the way the instruction needs, fails the body at Build.
func (a *Asm) field(op BCOp, f *Field, static bool) *Asm {
	switch {
	case f == nil:
		a.fail("%v: nil field", op)
	case f.Static && !static:
		a.fail("%v on static %s", op, f)
	case !f.Static && static:
		a.fail("%v on instance %s", op, f)
	}
	return a.emit(BC{Op: op, Operand: f})
}

// GetField pops a receiver and pushes f's value.
func (a *Asm) GetField(f *Field) *Asm { return a.field(BCGetField, f, false) }

// PutField pops a value then a receiver and stores into f.
func (a *Asm) PutField(f *Field) *Asm { return a.field(BCPutField, f, false) }

// GetStatic pushes static field f.
func (a *Asm) GetStatic(f *Field) *Asm { return a.field(BCGetStatic, f, true) }

// PutStatic pops into static field f.
func (a *Asm) PutStatic(f *Field) *Asm { return a.field(BCPutStatic, f, true) }

// class emits an instruction naming a class; a nil class fails the body
// at Build.
func (a *Asm) class(op BCOp, k isaElem, c *Class) *Asm {
	if c == nil {
		a.fail("%v: nil class", op)
	}
	return a.emit(BC{Op: op, Kind: k, Operand: c})
}

// NewArray pops a length and pushes a new primitive array.
func (a *Asm) NewArray(k isaElem) *Asm { return a.emit(BC{Op: BCNewArray, Kind: k}) }

// ANewArray pops a length and pushes a new reference array.
func (a *Asm) ANewArray(c *Class) *Asm { return a.class(BCANewArray, refElem, c) }

// ALoad pops index then array and pushes the element.
func (a *Asm) ALoad(k isaElem) *Asm { return a.emit(BC{Op: BCALoad, Kind: k}) }

// AStore pops value, index, array and stores the element.
func (a *Asm) AStore(k isaElem) *Asm { return a.emit(BC{Op: BCAStore, Kind: k}) }

// ArrayLen pops an array and pushes its length.
func (a *Asm) ArrayLen() *Asm { return a.emit(BC{Op: BCArrayLen}) }

// New pushes a new uninitialised instance of c. (Call its constructor
// with InvokeSpecial afterwards, as javac does.)
func (a *Asm) New(c *Class) *Asm { return a.class(BCNew, 0, c) }

// invoke emits a call. A nil method, or one the instruction cannot
// dispatch to, fails the body at Build.
func (a *Asm) invoke(op BCOp, m *Method) *Asm {
	switch {
	case m == nil:
		a.fail("%v: nil method", op)
	case op == BCInvokeInterface:
		if !m.Class.IsInterface {
			a.fail("%v on class method %s", op, m.Sig())
		}
	case op == BCInvokeStatic && !m.IsStatic():
		a.fail("%v on instance %s", op, m.Sig())
	case op != BCInvokeStatic && m.IsStatic():
		a.fail("%v on static %s", op, m.Sig())
	}
	return a.emit(BC{Op: op, Operand: m})
}

// InvokeVirtual calls m through the receiver's vtable.
func (a *Asm) InvokeVirtual(m *Method) *Asm { return a.invoke(BCInvokeVirtual, m) }

// InvokeSpecial calls m directly (constructors, super calls).
func (a *Asm) InvokeSpecial(m *Method) *Asm { return a.invoke(BCInvokeSpecial, m) }

// InvokeStatic calls static method m.
func (a *Asm) InvokeStatic(m *Method) *Asm { return a.invoke(BCInvokeStatic, m) }

// InvokeInterface calls interface method m through the receiver's itable.
func (a *Asm) InvokeInterface(m *Method) *Asm { return a.invoke(BCInvokeInterface, m) }

// InstanceOf pops a reference and pushes 1 when it is a non-null
// instance of c.
func (a *Asm) InstanceOf(c *Class) *Asm { return a.class(BCInstanceOf, 0, c) }

// CheckCast traps unless the top reference is null or an instance of c.
func (a *Asm) CheckCast(c *Class) *Asm { return a.class(BCCheckCast, 0, c) }

// Ret returns the top of stack as the method's value.
func (a *Asm) Ret() *Asm {
	if a.m.Ret == Void {
		a.fail("value return from void method")
	}
	return a.emit(BC{Op: BCReturn})
}

// RetVoid returns from a void method.
func (a *Asm) RetVoid() *Asm {
	if a.m.Ret != Void {
		a.fail("void return from %s method", a.m.Ret)
	}
	return a.emit(BC{Op: BCReturnVoid})
}

// MonitorEnter pops a reference and acquires its monitor.
func (a *Asm) MonitorEnter() *Asm { return a.emit(BC{Op: BCMonitorEnter}) }

// MonitorExit pops a reference and releases its monitor.
func (a *Asm) MonitorExit() *Asm { return a.emit(BC{Op: BCMonitorExit}) }

// Throw pops a throwable and unwinds.
func (a *Asm) Throw() *Asm { return a.emit(BC{Op: BCThrow}) }

// handlerSpec is a pending Catch registration resolved at Build.
type handlerSpec struct {
	from, to, target *Label
	typ              *Class
}

// Catch registers an exception handler: throws raised at bytecode
// positions in [from, to) whose object is an instance of catchType
// (nil = catch everything) branch to handler with the thrown reference
// as the only stack value. Handlers match in registration order.
func (a *Asm) Catch(from, to, handler *Label, catchType *Class) *Asm {
	if from == nil || to == nil || handler == nil {
		a.fail("nil label")
		return a
	}
	a.handlers = append(a.handlers, handlerSpec{from: from, to: to, target: handler, typ: catchType})
	return a
}

// Build finalises the body: checks labels and writes their positions
// into the instructions that use them, attaches an exact-size copy of
// the code and MaxLocals to the method, and hands the assembly buffer
// back to the program, cleared, for the next body.
func (a *Asm) Build() error {
	if a.built {
		return fmt.Errorf("asm %s: Build called twice", a.m.Sig())
	}
	if a.err != nil {
		return a.err
	}
	if len(a.code) == 0 {
		return fmt.Errorf("asm %s: empty body", a.m.Sig())
	}
	for _, f := range a.fixups {
		if err := a.checkTarget(int(f.pc), f.l); err != nil {
			return err
		}
		bc := &a.code[f.pc]
		if f.slot < 0 {
			bc.Target = int32(f.l.pc)
		} else {
			bc.Switch().Targets[f.slot] = int32(f.l.pc)
		}
	}
	last := a.code[len(a.code)-1].Op
	if !last.EndsBlock() {
		return fmt.Errorf("asm %s: control falls off the end (last op %v)", a.m.Sig(), last)
	}
	handlers := make([]Handler, 0, len(a.handlers))
	for i, h := range a.handlers {
		for _, l := range []*Label{h.from, h.to, h.target} {
			if !l.bound {
				return fmt.Errorf("asm %s: handler %d has an unbound label", a.m.Sig(), i)
			}
			if l.asm != a {
				return fmt.Errorf("asm %s: handler %d: label L%d belongs to %s",
					a.m.Sig(), i, l.made, l.asm.m.Sig())
			}
		}
		if h.from.pc >= h.to.pc {
			return fmt.Errorf("asm %s: handler %d protects empty range [%d,%d)",
				a.m.Sig(), i, h.from.pc, h.to.pc)
		}
		handlers = append(handlers, Handler{
			From: h.from.pc, To: h.to.pc, Target: h.target.pc, Type: h.typ,
		})
	}
	a.m.Handlers = append(a.m.Handlers, handlers...)
	a.m.Code = make([]BC, len(a.code))
	copy(a.m.Code, a.code)
	a.m.MaxLocals = a.maxLocal + 1
	a.built = true

	// The buffer goes back holding no operand: a spare must not keep a
	// class, field or method of a finished body reachable.
	clear(a.code)
	if p := a.m.Class.program; cap(a.code) > cap(p.spare) {
		p.spare = a.code[:0]
	}
	a.code, a.fixups = nil, nil
	return nil
}

// checkTarget reports a label used by the instruction at pc that is
// unbound, bound outside the body, or another assembler's.
func (a *Asm) checkTarget(pc int, l *Label) error {
	if !l.bound {
		return fmt.Errorf("asm %s: pc %d: unbound label L%d", a.m.Sig(), pc, l.made)
	}
	if l.pc < 0 || l.pc > len(a.code) {
		return fmt.Errorf("asm %s: pc %d: label L%d out of range", a.m.Sig(), pc, l.made)
	}
	if l.asm != a {
		return fmt.Errorf("asm %s: pc %d: label L%d belongs to %s", a.m.Sig(), pc, l.made, l.asm.m.Sig())
	}
	return nil
}

// MustBuild is Build but panics on error; workload builders use it.
func (a *Asm) MustBuild() {
	if err := a.Build(); err != nil {
		// Assembler-API misuse, unreachable because MustBuild assembles
		// only the tree's fixed builders, which their tests build.
		panic(err)
	}
}
