package vm

import (
	"testing"

	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// fillHeap allocates unreachable byte arrays until the heap has room
// for exactly one more allocation of the given size (the allocator
// rounds to 16 bytes), so the one after it finds the heap full and
// collects.
func fillHeap(t *testing.T, vm *VM, room uint32) {
	t.Helper()
	room = (room + 15) &^ 15
	free := func() uint32 { return vm.Heap.Size() - vm.Heap.LiveBytes() }
	for size := uint32(1 << 20); size >= isa.HeaderBytes; size /= 2 {
		for free() >= room+size {
			if _, err := vm.allocArray(isa.ElemByte, size-isa.HeaderBytes); err != nil {
				t.Fatal(err)
			}
		}
	}
	if free() != room || vm.GCCount != 0 {
		t.Fatalf("fill left %d bytes free after %d collections, want %d and none", free(), vm.GCCount, room)
	}
}

// The three tests below each hold a fresh allocation where only host
// code can see it while the next allocation collects. Each failed at the
// commit before the fix with the object swept and still in use.

// TestInvokeAllocationKeepsArguments: two things allocate inside a call
// after the arguments are on the caller's operand stack — a static
// synchronized method's class lock, made by its first call, and a
// string constant interned by the callee's compile. The argument here is
// a new X nothing else refers to, in a heap with room for X alone. (The
// class-lock row is the one that failed; the compile row pins that the
// caller's PC stays on the call, where the verifier types the
// arguments, until they leave its stack.)
func TestInvokeAllocationKeepsArguments(t *testing.T) {
	for _, row := range []struct {
		name  string
		flags classfile.MethodFlags
		body  func(a *classfile.Asm)
	}{
		{name: "class lock", flags: classfile.FlagStatic | classfile.FlagSynchronized,
			body: func(a *classfile.Asm) {}},
		{name: "compile interns", flags: classfile.FlagStatic,
			body: func(a *classfile.Asm) { a.Str("a constant nobody has interned").Pop() }},
	} {
		t.Run(row.name, func(t *testing.T) {
			p := newProg()
			x := p.NewClass("X", nil)
			v := x.NewField("v", classfile.Int)
			c := p.NewClass("Hole", nil)
			kept := c.NewStaticField("kept", classfile.Ref)
			fill := c.NewMethod("fill", classfile.FlagStatic|classfile.FlagNative, classfile.Void)

			sink := c.NewMethod("sink", row.flags, classfile.Int, classfile.Ref)
			a := sink.Asm()
			row.body(a)
			a.LoadRef(0)
			a.PutStatic(kept)
			a.GetStatic(kept)
			a.GetField(v)
			a.Ret()
			a.MustBuild()

			a = c.NewMethod("main", classfile.FlagStatic, classfile.Int).Asm()
			a.InvokeStatic(fill)
			a.New(x)
			a.Dup()
			a.ConstI(42)
			a.PutField(v)
			a.InvokeStatic(sink)
			a.Ret()
			a.MustBuild()

			vm, err := New(testConfig(), p)
			if err != nil {
				t.Fatal(err)
			}
			vm.RegisterNative("Hole.fill", &Native{Kind: NativeCompute, Fn: func(ctx *NativeCtx) error {
				fillHeap(t, vm, isa.ObjectBytes(x.InstanceSlots))
				return nil
			}})
			th, err := runEntry(vm, "Hole", "main")
			if err != nil {
				t.Fatal(err)
			}
			if vm.GCCount != 1 {
				t.Fatalf("%d collections; the test expects the call's allocation to collect once", vm.GCCount)
			}
			obj := Ref(vm.Machine.Mem.Read64(vm.staticAddr(kept)))
			if !vm.Heap.Contains(obj) || vm.classOf(obj) != x {
				t.Errorf("Hole.kept = %#x is not a live X: the argument was swept inside the call", obj)
			}
			if got := int32(uint32(th.Result)); got != 42 {
				t.Errorf("sink returned %d, want 42", got)
			}
		})
	}
}

// TestInternKeepsCharArray: intern allocates the char[] and then the
// String that will hold it.
func TestInternKeepsCharArray(t *testing.T) {
	vm, err := New(testConfig(), newProg())
	if err != nil {
		t.Fatal(err)
	}
	const s = "a string nobody has interned"
	fillHeap(t, vm, isa.ArrayBytes(isa.ElemChar, uint32(len(s))))
	str, err := vm.intern(s)
	if err != nil {
		t.Fatal(err)
	}
	if vm.GCCount != 1 {
		t.Fatalf("%d collections; the test expects the String's allocation to collect once", vm.GCCount)
	}
	arr := Ref(vm.Heap.FieldSlot(str, vm.stringCls.FieldByName("value").Slot))
	if !vm.Heap.Contains(arr) {
		t.Fatalf("String.value = %#x is not a live allocation", arr)
	}
	if len(vm.pinned) != 0 {
		t.Errorf("%d references still pinned", len(vm.pinned))
	}
	vm.gc() // the String is a root now, and holds the array
	if got := vm.GoString(str); got != s || !vm.Heap.Contains(arr) {
		t.Errorf("after a second collection the string reads %q, array live = %v", got, vm.Heap.Contains(arr))
	}
}

// TestMaterialiseTrapKeepsException: a trap's exception object is
// allocated, and then its message is interned — two more allocations.
func TestMaterialiseTrapKeepsException(t *testing.T) {
	vm, err := New(testConfig(), newProg())
	if err != nil {
		t.Fatal(err)
	}
	npe := vm.Prog.Lookup("java/lang/NullPointerException")
	fillHeap(t, vm, isa.ObjectBytes(npe.InstanceSlots))
	const detail = "a detail nobody has interned"
	ex := vm.materialiseTrap(&TrapError{Kind: "NullPointerException", Detail: detail})
	if vm.GCCount != 1 {
		t.Fatalf("%d collections; the test expects the message's allocation to collect once", vm.GCCount)
	}
	if !vm.Heap.Contains(ex) || vm.classOf(ex) != npe {
		t.Fatalf("the exception %#x is not a live NullPointerException", ex)
	}
	if got := vm.throwableMessage(ex); got != detail {
		t.Errorf("message = %q, want %q", got, detail)
	}
	if len(vm.pinned) != 0 {
		t.Errorf("%d references still pinned", len(vm.pinned))
	}
}
