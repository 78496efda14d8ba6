package vm

import "herajvm/internal/cell"

// The memory-model seam: local-store cores' software data caches are
// coherent only at synchronisation edges (§3.2.1) — the writing side
// flushes before the edge (release), the reading side purges after it
// (acquire). Nothing else in the package flushes or purges; each site
// names the edge it crosses (table: docs/ARCHITECTURE.md, "Memory model").

// edge is one source of happens-before between two cores.
type edge uint8

const (
	edgeMonitor   edge = iota + 1 // monitorenter/exit, Object.wait, the grant that ends a block
	edgeVolatile                  // volatile load / store
	edgeStart                     // Thread.start -> the child's first action
	edgeJoin                      // termination -> Thread.join returning
	edgeHandoff                   // a live thread changes core: steal, migration, JNI round trip, rehydrate
	edgeKernel                    // forRange: caller -> workers at launch, workers -> caller at the barrier
	edgeSyscall                   // SPE -> service-core mailbox: the native reads main memory
	edgeWorldStop                 // GC and Freeze work on main memory under every core
	edgeRuntime                   // the runtime bypasses or rebuilds a cache: arraycopy, adaptive resize
	numEdges
)

// ablated is the A4 ablation: UnsafeNoCoherence drops the barriers a
// monitor or volatile operation performs in place, and nothing else.
func (vm *VM) ablated(e edge) bool {
	return vm.Cfg.UnsafeNoCoherence && (e == edgeMonitor || e == edgeVolatile)
}

// barrier flushes, or with invalidate purges, core's data cache and
// counts the crossing; a hardware-coherent core has nothing to do.
func (vm *VM) barrier(core *cell.Core, e edge, invalidate bool) {
	dc := vm.dcaches[core.Index]
	if dc == nil {
		return
	}
	vm.edgeCrossings[e]++
	if invalidate {
		core.Now = dc.Purge(core.Now)
	} else {
		core.Now = dc.Flush(core.Now)
	}
}

// release publishes core's writes before the other side of e reads
// them; core.Now moves to the write-back completing.
func (vm *VM) release(core *cell.Core, e edge) {
	if !vm.ablated(e) {
		vm.barrier(core, e, false)
	}
}

// acquire drops what core cached before e, so its next reads observe
// what the other side released.
func (vm *VM) acquire(core *cell.Core, e edge) {
	if !vm.ablated(e) {
		vm.barrier(core, e, true)
	}
}

// acquireOnResume defers t's acquire of e to its next dispatch
// (runWhile's resumeAcquire). Unconditional: where t lands is not known
// yet, and a core without a data cache makes it a no-op.
func (vm *VM) acquireOnResume(t *Thread, e edge) { t.needPurge = e }

func (vm *VM) resumeAcquire(core *cell.Core, t *Thread) {
	if e := t.needPurge; e != 0 {
		t.needPurge = 0
		vm.barrier(core, e, true)
	}
}

// quiesce acquires e on every core: all dirty data reaches main memory
// and no core keeps a copy of what may change under it.
func (vm *VM) quiesce(e edge) {
	for _, core := range vm.cores {
		vm.acquire(core, e)
	}
}
