package isa

// vpuSpec is the VPU's row of the kind table: a GPU-like wide Vector
// Processing Unit, the proof that a third core kind drops in as data
// alone — this row plus VPUCosts. Nothing outside this file and the
// table names it: the machine model reads its capabilities (SPE-style
// local store, no runtime services, no branch predictor) and the
// placement policies read its cost table (very cheap floating point,
// brutal branch and call costs), and everything else follows.
var vpuSpec = KindSpec{
	Name:            "VPU",
	NewCosts:        VPUCosts,
	LocalStore:      true,
	MemAccessCycles: 36, // wider fills than the SPE: probe + larger DMA amortisation
	// Reluctant migration target: arbitrary mid-method work migrated in
	// by the scheduler is scalar and branchy, the shape this core
	// punishes, so the cross-kind cost gate prices a VPU service
	// quantum half again over its clock-time cost.
	MigrateAffinity: 1.5,
}

// VPUCosts returns the cost table for the Vector Processing Unit.
//
// Calibration rationale: the VPU models a GPU-style SIMT/wide-vector
// core. Its FP pipelines are the cheapest of the three kinds (the whole
// point of sending FP threads there), simple stack traffic stays in the
// wide register file, but anything control-flow-shaped is punished:
// taken branches flush deep wide pipelines with no predictor or
// hinting, calls serialise the machine, and integer division is a long
// software sequence. Memory follows the SPE's local-store model —
// software data/code caches over a scratchpad, DMA to main memory — so
// the VPU exercises exactly the same runtime machinery as the SPE with
// nothing but different numbers.
func VPUCosts() *CostTable {
	t := &CostTable{
		BranchTakenExtra:    40, // divergence: taken branch drains the wide pipe
		MethodPrologueBytes: 64,
	}
	fill16(&t.OpCost, 1, stackOps...) // wide register file, no stall
	fill16(&t.OpCost, 2, intALU...)
	t.OpCost[OpMulI] = 8
	t.OpCost[OpDivI] = 80 // software divide, longer than the SPE's
	t.OpCost[OpRemI] = 90
	fill16(&t.OpCost, 6, longALU...) // 64-bit ops split across lanes
	t.OpCost[OpMulL] = 24
	t.OpCost[OpDivL] = 160
	t.OpCost[OpRemL] = 180
	fill16(&t.OpCost, 1, fpALU...) // the VPU's reason to exist
	t.OpCost[OpMulF] = 1
	t.OpCost[OpMulD] = 2
	t.OpCost[OpDivF] = 8
	t.OpCost[OpDivD] = 10
	t.OpCost[OpRemF] = 24
	t.OpCost[OpRemD] = 28
	fill16(&t.OpCost, 2, fpConv...)
	t.OpCost[OpGoto] = 6 // even unconditional jumps restart the fetch window
	fill16(&t.OpCost, 8, condBranches...)
	t.OpCost[OpTableSwitch] = 40 // indirect branch: full divergence
	t.OpCost[OpLookupSwitch] = 48
	fill16(&t.OpCost, 24, callOps...) // calls serialise the wide machine
	t.OpCost[OpCallVirtual] = 30
	t.OpCost[OpCallInterface] = 44
	t.OpCost[OpReturn] = 18
	fill16(&t.OpCost, 2, memOps...)
	fill16(&t.OpCost, 30, allocOps...) // allocation is a runtime call, dearer than SPE
	t.OpCost[OpInstanceOf] = 14
	t.OpCost[OpCheckCast] = 14
	t.OpCost[OpMonitorEnter] = 60 // atomic DMA against a contended line
	t.OpCost[OpMonitorExit] = 45
	t.OpCost[OpThrow] = 80

	// Wide instruction words: 8-byte base encoding, with the same
	// inline-software-cache and call-sequence expansions as the SPE,
	// scaled up. This is what makes the VPU the heaviest code-cache
	// client of the three kinds (mean encoded size orders PPE < SPE < VPU).
	for o := Op(0); int(o) < NumOps; o++ {
		t.OpSize[o] = 8
	}
	t.OpSize[OpPushConst] = 16 // constant formation across lanes
	fill8(&t.OpSize, 12, OpGoto)
	fill8(&t.OpSize, 12, condBranches...)
	fill8(&t.OpSize, 32, OpGetField, OpPutField, OpALoad, OpAStore)
	fill8(&t.OpSize, 24, OpGetStatic, OpPutStatic)
	t.OpSize[OpArrayLen] = 16
	t.OpSize[OpDivI] = 32
	t.OpSize[OpRemI] = 32
	t.OpSize[OpDivL] = 40
	t.OpSize[OpRemL] = 40
	fill8(&t.OpSize, 32, callOps...)
	fill8(&t.OpSize, 24, allocOps...)
	t.OpSize[OpMonitorEnter] = 40
	t.OpSize[OpMonitorExit] = 32
	t.OpSize[OpReturn] = 16
	return t
}
