package vm

import (
	"herajvm/internal/cache"
	"herajvm/internal/cell"
	"herajvm/internal/isa"
)

// Adaptive cache sizing implements the paper's proposed future work:
// "these results ... suggest that adaptive sizing of the code and data
// caches would likely benefit many applications" (§4). When enabled,
// each local-store core periodically compares how often its software
// data and code caches missed over the last window and shifts
// local-store budget toward the needier cache. Resizing purges both
// caches (dirty data is written back first), exactly like the
// flush-when-full path, so it is always safe; it just costs a refill.

// adaptiveStep is how many bytes of local store one controller decision
// moves between the data and code caches; adaptiveInterval is the
// controller's window, in cycles of the core's clock.
const (
	adaptiveStep     = 16 << 10
	adaptiveInterval = 2_000_000
)

// adaptState tracks one local-store core's controller window.
type adaptState struct {
	lastCheck    cell.Clock
	lastDataMiss uint64
	lastCodeMiss uint64
	resizes      uint64
}

// maybeAdapt runs the controller for a local-store core if its window
// expired.
func (vm *VM) maybeAdapt(core *cell.Core) {
	if !vm.Cfg.AdaptiveCaches || vm.dcaches[core.Index] == nil {
		return
	}
	st := &vm.adapt[core.Index]
	if core.Now-st.lastCheck < adaptiveInterval {
		return
	}
	dMiss := core.Stats.DataMisses - st.lastDataMiss
	cMiss := core.Stats.CodeMisses - st.lastCodeMiss
	st.lastCheck = core.Now
	st.lastDataMiss = core.Stats.DataMisses
	st.lastCodeMiss = core.Stats.CodeMisses

	// Neither cache shrinks below 16 KB, and the data cache never below
	// one fill unit.
	minSize := uint32(16) << 10
	dc := vm.dcaches[core.Index].Config()
	minData := max(minSize, dc.ArrayBlock, cache.MaxEntryBytes)
	dSize := dc.Size
	cSize := vm.ccaches[core.Index].Config().Size

	// Both miss kinds cost roughly one DMA; shift toward the side that
	// missed decisively more.
	switch {
	case dMiss > 2*cMiss && dMiss > 64 && cSize >= minSize+adaptiveStep:
		vm.resizeLocalCaches(core, dSize+adaptiveStep, cSize-adaptiveStep)
		st.resizes++
	case cMiss > 2*dMiss && cMiss > 64 && dSize >= minData+adaptiveStep:
		vm.resizeLocalCaches(core, dSize-adaptiveStep, cSize+adaptiveStep)
		st.resizes++
	}
}

// resizeLocalCaches rebuilds a local-store core's software caches with a
// new split of the same local-store region. Dirty data is written back
// first; both caches restart cold.
func (vm *VM) resizeLocalCaches(core *cell.Core, dataSize, codeSize uint32) {
	vm.acquire(core, edgeRuntime)
	core.Charge(isa.ClassMainMem, 5000) // controller + remap overhead

	dcfg := vm.dcaches[core.Index].Config()
	dcfg.Size = dataSize
	ccfg := vm.ccaches[core.Index].Config()
	ccfg.Size = codeSize
	vm.dcaches[core.Index] = cache.NewDataCache(dcfg, core, 0)
	vm.ccaches[core.Index] = cache.NewCodeCache(ccfg, core, dataSize)
}

// CacheSplit returns the i-th local-store core's current (data, code)
// cache sizes in bytes.
func (vm *VM) CacheSplit(i int) (uint32, uint32) {
	return vm.dcaches[vm.lsCores[i]].Config().Size, vm.ccaches[vm.lsCores[i]].Config().Size
}
