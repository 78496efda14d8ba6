package vm

import (
	"fmt"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// execute runs t on core for up to quantum cycles, or until the thread
// blocks, terminates or migrates. It interprets the JIT-compiled machine
// instructions, charging each to the core's clock and operation-class
// counters; memory instructions route through the core's software caches
// (local-store kinds) or its hardware-cache model.
func (vm *VM) execute(core *cell.Core, t *Thread, quantum uint64) {
	deadline := core.Now + quantum
	for t.State == StateRunning && core.Now < deadline {
		f := t.top()
		if f.Marker {
			if len(t.Frames) == 1 {
				// A marker is always pushed beneath a callee (invoke's
				// migration protocol), so a lone marker is malformed state;
				// popping it would leave no frame to resume, and the loop
				// above would spin without charging a cycle. Trap instead.
				vm.trap(core, t, vm.trapAt(nil, "InternalError",
					"migration marker with no caller frame"))
				return
			}
			// Resumed after migrating back: drop the marker and deliver
			// the pending return value to the caller underneath.
			t.recycle(t.popFrame())
			f = t.top()
			if t.pendingHasVal {
				f.push(t.pendingVal)
			}
			t.pendingHasVal = false
			continue
		}
		// Freeze barrier: the job is being quiesced for a hand-off. Park
		// the thread here — Blocked, off the calendar — instead of
		// spending the quantum; Freeze collects it (or unparkJob
		// re-queues it if the freeze aborts). The check sits between
		// instructions, where none is half applied; markers were already
		// handled above.
		if j := t.job; j.freezeBarrier {
			t.State = StateBlocked
			j.parked = append(j.parked, t)
			return
		}
		// Superblock fast path: when a memoized pure block starts here and
		// fits strictly inside the quantum (every prefix the reference
		// interpreter would check also fits, so deadline semantics are
		// unchanged), apply it in one step. Any divergence falls through
		// to step, which IS the reference semantics.
		if !vm.sbOff {
			if b := f.CM.Block(f.PC); b != nil && core.Now+b.Cycles < deadline {
				vm.fastForward(core, t, f, b, deadline)
				continue
			}
		}
		in := f.CM.Code[f.PC]
		f.retire(core, in.Op.Class(), uint64(in.Cost))
		if err := vm.step(core, t, f, in); err != nil {
			vm.raise(core, t, err)
			if t.State != StateRunning {
				return
			}
		}
	}
}

// trap terminates a thread with an error, releasing any monitors it
// owns so other threads do not deadlock on a dead owner.
func (vm *VM) trap(core *cell.Core, t *Thread, err error) {
	t.Trap = err
	t.State = StateTerminated
	for obj, m := range vm.monitors {
		if m.owner == t {
			m.owner = nil
			m.count = 0
			vm.writeLockWord(obj, m)
			vm.wakeBlocked(core, m)
		}
	}
}

func (vm *VM) trapAt(f *Frame, kind, detail string) error {
	sig := "?"
	pc := 0
	if f != nil && f.CM != nil {
		sig = f.CM.M.Sig()
		pc = f.PC
	}
	return &TrapError{Kind: kind, Detail: detail, Method: sig, PC: pc}
}

// chargeDyn adds dynamically determined cycles (cache misses, DMA
// waits) to the per-method monitor counters; the core clock was already
// advanced by the memory subsystem.
func (f *Frame) chargeDyn(class isa.OpClass, n uint64) {
	if f.ctr != nil {
		f.ctr.Cycles[class] += n
	}
}

// retire charges one instruction's static cost to the core and the
// per-method monitor counters and counts it retired: the prologue every
// individually executed instruction shares, whichever loop dispatched
// it (execute, an absorbed memory micro-op).
func (f *Frame) retire(core *cell.Core, class isa.OpClass, cost uint64) {
	core.Charge(class, cost)
	f.chargeDyn(class, cost)
	core.Stats.Instrs++
}

// branch executes the conditional branch at f.PC: it decides the
// outcome from the popped operands (a pushed first; b is unused by the
// one-operand forms), applies the kind's branch model — a hardware
// predictor charges the kind's BranchTakenExtra on a mispredict; a
// statically hinted core (the compiler hints fall-through) pays it on
// every taken branch — and transfers control.
func (vm *VM) branch(core *cell.Core, f *Frame, op isa.Op, cond, target int32, a, b uint64) {
	var taken bool
	switch op {
	case isa.OpIf:
		taken = condHolds(cond, compare32(int32(a), 0))
	case isa.OpIfCmpI:
		taken = condHolds(cond, compare32(int32(a), int32(b)))
	case isa.OpIfCmpRef:
		eq := Ref(a) == Ref(b)
		taken = (cond == isa.CondEQ && eq) || (cond == isa.CondNE && !eq)
	default: // isa.OpIfNull
		taken = (cond == 0 && Ref(a) == 0) || (cond == 1 && Ref(a) != 0)
	}
	miss := taken
	if core.BP != nil {
		miss = !core.BP.Predict(uint32(f.CM.M.ID)<<12^uint32(f.PC), taken)
	}
	if miss {
		penalty := uint64(vm.compilers[core.Kind].Costs().BranchTakenExtra)
		core.Charge(isa.ClassBranch, penalty)
		f.chargeDyn(isa.ClassBranch, penalty)
	}
	if taken {
		f.PC = int(target)
	} else {
		f.PC++
	}
}

func (f *Frame) popI() int32 { return int32(uint32(f.pop())) }
func (f *Frame) popRef() Ref { return Ref(f.pop()) }

// chargeVec is chargeDyn for a superblock segment's per-class vector.
func (f *Frame) chargeVec(v *[isa.NumClasses]uint64) {
	if f.ctr != nil {
		for i, n := range v {
			if n != 0 { // blocks rarely span more than a few classes
				f.ctr.Cycles[i] += n
			}
		}
	}
}

// step executes one instruction. It returns a TrapError to kill the
// thread; all other control effects (blocking, migration, termination)
// are applied to t directly. Cases that transfer control return early;
// the rest fall out of the switch to the PC advance.
func (vm *VM) step(core *cell.Core, t *Thread, f *Frame, in isa.Instr) error {
	switch in.Op {
	case isa.OpNop:

	case isa.OpPushConst:
		f.push(uint64(uint32(in.A)) | uint64(uint32(in.B))<<32)
	case isa.OpLoadLocal:
		f.push(f.Locals[in.A])
	case isa.OpStoreLocal:
		f.Locals[in.A] = f.pop()
	case isa.OpPop:
		f.pop()
	case isa.OpPop2:
		f.pop()
		f.pop()
	case isa.OpDup:
		f.push(f.Stack[f.SP-1])
	case isa.OpDupX1:
		a, b := f.pop(), f.pop()
		f.push(a)
		f.push(b)
		f.push(a)
	case isa.OpDupX2:
		a, b, c := f.pop(), f.pop(), f.pop()
		f.push(a)
		f.push(c)
		f.push(b)
		f.push(a)
	case isa.OpDup2:
		a, b := f.pop(), f.pop()
		f.push(b)
		f.push(a)
		f.push(b)
		f.push(a)
	case isa.OpSwap:
		a, b := f.pop(), f.pop()
		f.push(a)
		f.push(b)
	case isa.OpIncLocal:
		f.Locals[in.A], _ = isa.Eval(isa.OpAddI, f.Locals[in.A], uint64(uint32(in.B)), 0)

	// --- control ---
	case isa.OpGoto:
		f.PC = int(in.A)
		return nil
	case isa.OpIf, isa.OpIfNull:
		vm.branch(core, f, in.Op, in.A, in.B, f.pop(), 0)
		return nil
	case isa.OpIfCmpI, isa.OpIfCmpRef:
		b := f.pop()
		vm.branch(core, f, in.Op, in.A, in.B, f.pop(), b)
		return nil
	case isa.OpTableSwitch:
		idx := f.popI()
		table := f.CM.Tables[in.C]
		if idx >= in.A && int(idx-in.A) < len(table) {
			f.PC = int(table[idx-in.A])
		} else {
			f.PC = int(in.B)
		}
		return nil
	case isa.OpLookupSwitch:
		key := f.popI()
		table := f.CM.Tables[in.C]
		keys := f.CM.Keys[in.C]
		f.PC = int(in.B)
		for i, k := range keys {
			if k == key {
				f.PC = int(table[i])
				break
			}
		}
		return nil

	// --- calls ---
	case isa.OpCallStatic, isa.OpCallSpecial:
		return vm.invoke(core, t, f, vm.Prog.MethodByID(int(in.A)))
	case isa.OpCallVirtual:
		declared := vm.classByID[in.B].VTable[in.A]
		recv := Ref(f.Stack[f.SP-1-len(declared.Params)])
		if recv == 0 {
			return vm.trapAt(f, "NullPointerException", "virtual call on null")
		}
		callee := declared
		if cls := vm.classOf(recv); cls != nil {
			callee = cls.VTable[in.A]
		} else {
			// Arrays dispatch through Object's vtable.
			callee = vm.Prog.Object.VTable[in.A]
		}
		return vm.invoke(core, t, f, callee)
	case isa.OpCallInterface:
		im := vm.ifaceMethods[int(in.A)]
		recv := Ref(f.Stack[f.SP-1-len(im.Params)])
		if recv == 0 {
			return vm.trapAt(f, "NullPointerException", "interface call on null")
		}
		cls := vm.classOf(recv)
		if cls == nil {
			return vm.trapAt(f, "IncompatibleClassChangeError", "interface call on array")
		}
		callee := cls.ITable[int(in.A)]
		if callee == nil {
			return vm.trapAt(f, "AbstractMethodError", im.Sig())
		}
		return vm.invoke(core, t, f, callee)
	case isa.OpReturn:
		var val uint64
		if in.A == 1 {
			val = f.pop()
		}
		vm.returnFrom(core, t, val, in.A == 1)
		return nil

	// --- heap ---
	case isa.OpGetField, isa.OpPutField, isa.OpGetStatic, isa.OpPutStatic,
		isa.OpALoad, isa.OpAStore, isa.OpArrayLen:
		return vm.stepMem(core, f, in.Op, in.A, in.B)

	// --- allocation and type tests ---
	case isa.OpNew:
		obj, err := vm.allocObject(vm.classByID[in.A])
		if err != nil {
			return vm.trapAt(f, "OutOfMemoryError", err.Error())
		}
		f.push(uint64(obj))
	case isa.OpNewArray, isa.OpANewArray:
		n := f.popI()
		if n < 0 {
			return vm.trapAt(f, "NegativeArraySizeException", fmt.Sprintf("%d", n))
		}
		kind := isa.ElemKind(in.A)
		if in.Op == isa.OpANewArray {
			kind = isa.ElemRef
		}
		arr, err := vm.allocArray(kind, uint32(n))
		if err != nil {
			return vm.trapAt(f, "OutOfMemoryError", err.Error())
		}
		f.push(uint64(arr))
	case isa.OpInstanceOf:
		r := f.popRef()
		var is uint64
		if r != 0 && vm.isInstance(r, vm.classByID[in.A]) {
			is = 1
		}
		f.push(is)
	case isa.OpCheckCast:
		r := f.popRef()
		if r != 0 && !vm.isInstance(r, vm.classByID[in.A]) {
			return vm.trapAt(f, "ClassCastException",
				fmt.Sprintf("%#x is not a %s", r, vm.classByID[in.A].Name))
		}
		f.push(uint64(r))

	// --- synchronisation ---
	case isa.OpMonitorEnter:
		obj := f.popRef()
		if obj == 0 {
			return vm.trapAt(f, "NullPointerException", "monitorenter")
		}
		f.PC++
		vm.monitorEnter(core, t, obj) // if it blocked, it resumes here once granted
		return nil
	case isa.OpMonitorExit:
		obj := f.popRef()
		if obj == 0 {
			return vm.trapAt(f, "NullPointerException", "monitorexit")
		}
		if err := vm.monitorExit(core, t, obj); err != nil {
			return err
		}
	case isa.OpThrow:
		r := f.popRef()
		if r == 0 {
			return vm.trapAt(f, "NullPointerException", "athrow on null")
		}
		return thrownError{ref: r}

	default:
		// Arithmetic, compares and conversions: pop, isa.Eval, push.
		n := in.Op.Arity()
		if n == 0 {
			return vm.trapAt(f, "InternalError", fmt.Sprintf("unhandled opcode %v", in.Op))
		}
		var a, b uint64
		if n == 2 {
			b = f.pop()
		}
		a = f.pop()
		v, ok := isa.Eval(in.Op, a, b, in.A)
		if !ok {
			detail := "/ by zero"
			if in.Op == isa.OpRemI || in.Op == isa.OpRemL {
				detail = "% by zero"
			}
			return vm.trapAt(f, "ArithmeticException", detail)
		}
		f.push(v)
	}
	f.PC++
	return nil
}

// stepMem executes one memory instruction against the operand stack:
// pop the operands, memAccess, push a load's result, advance the PC.
// On a trap the operands stay popped. It is step's heap case and the
// fast path's between-block chain.
func (vm *VM) stepMem(core *cell.Core, f *Frame, op isa.Op, a, b int32) error {
	var o [3]uint64
	pops, loads := op.MemShape()
	for i := pops - 1; i >= 0; i-- {
		o[i] = f.pop()
	}
	v, err := vm.memAccess(core, f, op, a, b, o[0], o[1], o[2])
	if err != nil {
		return err
	}
	if loads {
		f.push(v)
	}
	f.PC++
	return nil
}

// memAccess is the one definition of the seven array/field/static
// instructions: null and bounds checks, then the load or store through
// the core's memory path (so the cache model, coherence actions and
// dynamic charges evolve the same whoever calls). a and b are the
// instruction's A/B operands (element kind, or field offset / static
// slot and flags); x, y, z its stack operands in push order — array
// (or object) reference, index, stored value, as far as the op has
// them. It returns a load's value. A trap reports f.PC, which the
// caller keeps at the instruction.
func (vm *VM) memAccess(core *cell.Core, f *Frame, op isa.Op, a, b int32, x, y, z uint64) (uint64, error) {
	switch op {
	case isa.OpALoad, isa.OpAStore:
		arr, idx := Ref(x), int32(y)
		if arr == 0 {
			detail := "array load"
			if op == isa.OpAStore {
				detail = "array store"
			}
			return 0, vm.trapAt(f, "NullPointerException", detail)
		}
		n := vm.arrayLength(core, f, arr)
		if idx < 0 || uint32(idx) >= n {
			return 0, vm.trapAt(f, "ArrayIndexOutOfBoundsException",
				fmt.Sprintf("index %d, length %d", idx, n))
		}
		k := isa.ElemKind(a)
		esz := k.Size()
		if op == isa.OpAStore {
			vm.storeMem(core, f, arr+isa.HeaderBytes, n*esz, uint32(idx)*esz, esz, z, 0, true)
			return 0, nil
		}
		raw := vm.loadMem(core, f, arr+isa.HeaderBytes, n*esz, uint32(idx)*esz, esz, 0, true)
		return extendElem(k, raw), nil
	case isa.OpArrayLen:
		if Ref(x) == 0 {
			return 0, vm.trapAt(f, "NullPointerException", "arraylength")
		}
		return uint64(vm.arrayLength(core, f, Ref(x))), nil
	case isa.OpGetField:
		ref := Ref(x)
		if ref == 0 {
			return 0, vm.trapAt(f, "NullPointerException", "getfield")
		}
		return vm.loadMem(core, f, ref, vm.objectSize(ref), uint32(a), 8, b, false), nil
	case isa.OpPutField:
		ref := Ref(x)
		if ref == 0 {
			return 0, vm.trapAt(f, "NullPointerException", "putfield")
		}
		vm.storeMem(core, f, ref, vm.objectSize(ref), uint32(a), 8, y, b, false)
	case isa.OpGetStatic:
		addr := vm.staticsBase + uint32(a)*isa.SlotBytes
		return vm.loadMem(core, f, addr, isa.SlotBytes, 0, 8, b, false), nil
	case isa.OpPutStatic:
		addr := vm.staticsBase + uint32(a)*isa.SlotBytes
		vm.storeMem(core, f, addr, isa.SlotBytes, 0, 8, x, b, false)
	}
	return 0, nil
}

func compare32(a, b int32) int32 {
	switch {
	case a < b:
		return -1
	case a == b:
		return 0
	default:
		return 1
	}
}

func condHolds(cond, order int32) bool {
	switch cond {
	case isa.CondEQ:
		return order == 0
	case isa.CondNE:
		return order != 0
	case isa.CondLT:
		return order < 0
	case isa.CondGE:
		return order >= 0
	case isa.CondGT:
		return order > 0
	case isa.CondLE:
		return order <= 0
	}
	return false
}

// extendElem widens a raw array element to its stack representation.
func extendElem(k isa.ElemKind, raw uint64) uint64 {
	switch k {
	case isa.ElemBool, isa.ElemByte:
		return uint64(uint32(int32(int8(raw))))
	case isa.ElemChar:
		return uint64(uint32(uint16(raw)))
	case isa.ElemShort:
		return uint64(uint32(int32(int16(raw))))
	case isa.ElemInt, isa.ElemFloat:
		return raw & 0xffffffff
	default:
		return raw
	}
}

// isInstance implements instanceof/checkcast over the class hierarchy;
// arrays are instances of Object only (array covariance is out of
// scope).
func (vm *VM) isInstance(r Ref, target *classfile.Class) bool {
	cls := vm.classOf(r)
	if cls == nil {
		return target == vm.Prog.Object
	}
	return cls.IsSubclassOf(target)
}

// arrayLength reads the length word from an array header through the
// memory system (a real load in baseline-compiled code).
func (vm *VM) arrayLength(core *cell.Core, f *Frame, arr Ref) uint32 {
	v := vm.loadMem(core, f, arr, isa.HeaderBytes, isa.HeaderLengthOff, 4, 0, false)
	return uint32(v)
}

// loadMem performs a data load through the core's memory path:
//   - local-store kinds: the software data cache (whole-object or
//     array-block policy per isArray), honouring volatile
//     purge-before-read;
//   - hardware-cached kinds: the L1/L2 hardware model plus a direct
//     main-memory read.
//
// unit is the base address of the cacheable unit (object header or array
// data), unitSize its size, off the byte offset of the access.
func (vm *VM) loadMem(core *cell.Core, f *Frame, unit Ref, unitSize, off, width uint32, flags int32, isArray bool) uint64 {
	if dc := vm.dcaches[core.Index]; dc != nil {
		if flags&isa.FlagVolatile != 0 {
			vm.acquire(core, edgeVolatile) // observe other cores' writes
		}
		before := core.Now
		var v uint64
		if isArray {
			v, core.Now = dc.ReadArray(core.Now, unit, unitSize, off, width)
		} else {
			v, core.Now = dc.ReadObject(core.Now, unit, unitSize, off, width)
		}
		f.chargeDyn(isa.ClassLocalMem, core.Now-before)
		return v
	}
	cycles, l1 := core.Mem.Access(unit+off, width)
	class := isa.ClassLocalMem
	if !l1 {
		class = isa.ClassMainMem
		core.Stats.DataMisses++
	} else {
		core.Stats.DataHits++
	}
	core.Charge(class, uint64(cycles))
	f.chargeDyn(class, uint64(cycles))
	return readMain(vm, unit+off, width)
}

// storeMem is the store counterpart of loadMem, honouring volatile
// flush-after-write on local-store kinds.
func (vm *VM) storeMem(core *cell.Core, f *Frame, unit Ref, unitSize, off, width uint32, val uint64, flags int32, isArray bool) {
	if dc := vm.dcaches[core.Index]; dc != nil {
		before := core.Now
		if isArray {
			core.Now = dc.WriteArray(core.Now, unit, unitSize, off, width, val)
		} else {
			core.Now = dc.WriteObject(core.Now, unit, unitSize, off, width, val)
		}
		if flags&isa.FlagVolatile != 0 {
			vm.release(core, edgeVolatile) // publish this write
		}
		f.chargeDyn(isa.ClassLocalMem, core.Now-before)
		return
	}
	cycles, l1 := core.Mem.Access(unit+off, width)
	class := isa.ClassLocalMem
	if !l1 {
		class = isa.ClassMainMem
		core.Stats.DataMisses++
	} else {
		core.Stats.DataHits++
	}
	core.Charge(class, uint64(cycles))
	f.chargeDyn(class, uint64(cycles))
	writeMain(vm, unit+off, width, val)
}

func readMain(vm *VM, addr uint32, width uint32) uint64 {
	switch width {
	case 1:
		return uint64(vm.Machine.Mem.Read8(addr))
	case 2:
		return uint64(vm.Machine.Mem.Read16(addr))
	case 4:
		return uint64(vm.Machine.Mem.Read32(addr))
	default:
		return vm.Machine.Mem.Read64(addr)
	}
}

func writeMain(vm *VM, addr uint32, width uint32, v uint64) {
	switch width {
	case 1:
		vm.Machine.Mem.Write8(addr, uint8(v))
	case 2:
		vm.Machine.Mem.Write16(addr, uint16(v))
	case 4:
		vm.Machine.Mem.Write32(addr, uint32(v))
	default:
		vm.Machine.Mem.Write64(addr, v)
	}
}
