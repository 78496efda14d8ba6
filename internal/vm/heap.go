// Package vm is Hera-JVM's runtime system: the object model and heap in
// simulated main memory, the mark-and-sweep stop-the-world garbage
// collector (which runs only on the service core, as in the paper's
// evaluation configuration), green Java threads placed onto the
// machine's cores by drain-time-weighted pickCore and driven by the
// internal/sched scheduler, transparent cross-kind thread
// migration (policy-driven at call boundaries, and scheduler-driven
// cost-gated migration of queued threads via the OnMigrate hook),
// monitors and volatiles with the local-store cache purge/flush
// coherence hooks, the accelerator->service-core syscall proxy, and the
// built-in subset of the Java library.
package vm

import (
	"sort"

	"herajvm/internal/isa"
	"herajvm/internal/mem"
)

// Ref is a heap reference: the main-memory address of an object header.
// The null reference is 0.
type Ref = uint32

// Heap manages the Java heap region of main memory with a first-fit
// free-list allocator. It is non-moving: the mark-and-sweep collector
// rebuilds the free list from the gaps between survivors.
type Heap struct {
	main  *mem.Main
	start mem.Addr
	end   mem.Addr

	free []span // sorted by address
	// objects maps every live allocation to its size.
	objects map[Ref]uint32
}

type span struct {
	addr mem.Addr
	size uint32
}

// NewHeap creates a heap over [start, end).
func NewHeap(main *mem.Main, start, end mem.Addr) *Heap {
	return &Heap{
		main:    main,
		start:   start,
		end:     end,
		free:    []span{{addr: start, size: end - start}},
		objects: make(map[Ref]uint32),
	}
}

// Size returns the heap capacity in bytes.
func (h *Heap) Size() uint32 { return h.end - h.start }

// LiveBytes returns the sum of live allocation sizes.
func (h *Heap) LiveBytes() uint32 {
	var n uint32
	for _, s := range h.objects {
		n += s
	}
	return n
}

// LiveObjects returns the number of live allocations.
func (h *Heap) LiveObjects() int { return len(h.objects) }

// Alloc reserves size bytes (16-byte aligned) and zeroes them. It
// returns 0 when the heap is exhausted (the VM then runs a GC and
// retries).
func (h *Heap) Alloc(size uint32) Ref {
	size = (size + 15) &^ 15
	for i := range h.free {
		if h.free[i].size >= size {
			addr := h.free[i].addr
			h.free[i].addr += size
			h.free[i].size -= size
			if h.free[i].size == 0 {
				h.free = append(h.free[:i], h.free[i+1:]...)
			}
			h.main.Zero(addr, size)
			h.objects[addr] = size
			return addr
		}
	}
	return 0
}

// Contains reports whether addr is a live allocation's base address.
func (h *Heap) Contains(addr Ref) bool {
	_, ok := h.objects[addr]
	return ok
}

// Sweep retains exactly the marked allocations and rebuilds the free
// list from the gaps.
func (h *Heap) Sweep(marked map[Ref]bool) {
	live := make([]span, 0, len(marked))
	for addr, size := range h.objects {
		if marked[addr] {
			live = append(live, span{addr: addr, size: size})
		} else {
			delete(h.objects, addr)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].addr < live[j].addr })

	h.free = h.free[:0]
	cursor := h.start
	for _, s := range live {
		if s.addr > cursor {
			h.free = append(h.free, span{addr: cursor, size: s.addr - cursor})
		}
		cursor = s.addr + s.size
	}
	if cursor < h.end {
		h.free = append(h.free, span{addr: cursor, size: h.end - cursor})
	}
}

// Object accessors: every object/array lives in main memory with the
// layout of isa's layout constants.

// WriteHeader initialises an object header.
func (h *Heap) WriteHeader(obj Ref, classID int, length uint32) {
	h.main.Write32(obj+isa.HeaderClassOff, uint32(classID))
	h.main.Write32(obj+isa.HeaderFlagsOff, 0)
	h.main.Write32(obj+isa.HeaderLockOff, 0)
	h.main.Write32(obj+isa.HeaderLengthOff, length)
}

// ClassIDOf reads the class ID from an object header.
func (h *Heap) ClassIDOf(obj Ref) int { return int(h.main.Read32(obj + isa.HeaderClassOff)) }

// LengthOf reads an array length from the header.
func (h *Heap) LengthOf(obj Ref) uint32 { return h.main.Read32(obj + isa.HeaderLengthOff) }

// FieldSlot reads instance field slot i directly (runtime-internal use;
// Java code goes through the executor's cached paths).
func (h *Heap) FieldSlot(obj Ref, slot int) uint64 {
	return h.main.Read64(obj + isa.FieldOffset(slot))
}

// SetFieldSlot writes instance field slot i directly.
func (h *Heap) SetFieldSlot(obj Ref, slot int, v uint64) {
	h.main.Write64(obj+isa.FieldOffset(slot), v)
}
