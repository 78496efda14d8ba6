package vm

import (
	"sort"

	"herajvm/internal/cell"
	"herajvm/internal/isa"
)

// This file is the per-method ledger — each method's cycles by
// operation class and its invoke count, which the runtime-monitoring
// policy (§6), the behaviour-aware task cost and the report read — and
// the only code that writes it. Every frame is born profiled
// (profileFrame); its cycles reach its method through bill,
// billLocalStore or chainBill.settle. Runtime work that runs no method
// (compiles, monitors, natives, throws, GC, the adaptive controller)
// and the caches' own charges bill the core alone.

// methodCounters is one method's observed cycle composition: methods
// with a high floating-point share are SPE candidates, methods
// dominated by main-memory cycles PPE candidates (§4's conclusion).
type methodCounters struct {
	Cycles  [isa.NumClasses]uint64
	Invokes uint64
}

// Busy returns the cycles the method has executed, over every class.
func (m *methodCounters) Busy() uint64 {
	var busy uint64
	for _, c := range m.Cycles {
		busy += c
	}
	return busy
}

// FPShare returns the floating-point share of the method's cycles.
func (m *methodCounters) FPShare() float64 { return m.share(isa.ClassFloat) }

// MemShare returns the main-memory share of the method's cycles.
func (m *methodCounters) MemShare() float64 { return m.share(isa.ClassMainMem) }

func (m *methodCounters) share(class isa.OpClass) float64 {
	busy := m.Busy()
	if busy == 0 {
		return 0
	}
	return float64(m.Cycles[class]) / float64(busy)
}

// ledger holds the per-method counters, indexed by global method ID. A
// method's entry is nil until its first invoke allocates it, so a
// program pays only for the methods it runs.
type ledger []*methodCounters

// hottest returns up to n method IDs ordered by busy cycles, hottest
// first, ties by ID. The machine report lists them.
func (l ledger) hottest(n int) []int {
	var ids []int
	for id, c := range l {
		if c != nil {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := l[ids[i]].Busy(), l[ids[j]].Busy()
		if a != b {
			return a > b
		}
		return ids[i] < ids[j]
	})
	return ids[:min(n, len(ids))]
}

// profileFrame attaches the counters of f's method to f, a new
// activation of it, and counts the invoke. Each site that makes a frame
// to run calls it once, before the frame executes.
func (vm *VM) profileFrame(f *Frame) {
	id := f.CM.M.ID
	c := vm.ledger[id]
	if c == nil {
		c = &methodCounters{}
		vm.ledger[id] = c
	}
	c.Invokes++
	f.ctr = c
}

// bill advances core's clock by n cycles of class and bills them to the
// core's class vector and to f's method alike.
func bill(core *cell.Core, f *Frame, class isa.OpClass, n uint64) {
	core.Charge(class, n)
	f.ctr.Cycles[class] += n
}

// billLocalStore runs access, one software data-cache access on a
// local-store core, and bills f's method the whole time it took as
// ClassLocalMem. The cache has billed the core already, by class.
// access only moves core.Now; a barrier around it (a volatile load's
// acquire, a volatile store's release) stays outside the window, so the
// core alone pays for it, as for every other barrier.
//
// This is ROADMAP item 6's bias site: the cache bills the core a miss's
// DMA wait as ClassMainMem, but the method sees it as ClassLocalMem, so
// MemShare never counts a data-cache miss taken on a local-store core.
// Billing the method, per class, what the core was billed across the
// window mends it here alone.
func billLocalStore(core *cell.Core, f *Frame, access func()) {
	before := core.Now
	access()
	f.ctr.Cycles[isa.ClassLocalMem] += core.Now - before
}

// settle pays a replayed chain's bill into the core's counters and f's
// method: the one place the replay writes a class vector.
func (bill *chainBill) settle(core *cell.Core, f *Frame) {
	core.SettleFastForward(&bill.classes, bill.instrs, bill.ffInstrs, bill.blocks)
	for i, n := range &bill.classes {
		f.ctr.Cycles[i] += n
	}
}
