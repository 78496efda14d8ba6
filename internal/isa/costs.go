package isa

// CostTable assigns each machine opcode a static cycle cost and an
// encoded size in bytes for one core type. Costs are calibration values,
// not silicon measurements: they are chosen so that the relative
// behaviour the paper reports (Figures 4-7) emerges from the simulation.
// The rationale for each group is documented on the constructors below.
//
// Memory opcodes (OpGetField etc.) carry only their address-generation
// cost here; the dynamic portion (software-cache probe and DMA on the
// SPE, hardware-cache hit/miss on the PPE) is charged by the machine
// model at execution time.
type CostTable struct {
	// OpCost is the static cycle cost per opcode.
	OpCost [NumOps]uint16
	// OpSize is the encoded size in bytes per opcode. The SPE's sequences
	// are larger (inline software-cache probes, branch hints, constant
	// formation), which is what gives the code cache its pressure.
	OpSize [NumOps]uint8
	// BranchTakenExtra is added when a conditional branch is taken.
	// On the SPE this models the ~18-cycle penalty of a branch without a
	// correct hint (the baseline compiler hints fall-through); on the PPE
	// it models a mispredict charged probabilistically by the predictor.
	BranchTakenExtra uint16
	// MethodPrologueBytes models the size of per-method entry (frame
	// build) code.
	MethodPrologueBytes uint16
}

func fill16(dst *[NumOps]uint16, v uint16, ops ...Op) {
	for _, o := range ops {
		dst[o] = v
	}
}

func fill8(dst *[NumOps]uint8, v uint8, ops ...Op) {
	for _, o := range ops {
		dst[o] = v
	}
}

var stackOps = []Op{
	OpNop, OpPushConst, OpLoadLocal, OpStoreLocal, OpPop, OpPop2, OpDup,
	OpDupX1, OpDupX2, OpDup2, OpSwap, OpIncLocal,
}

var intALU = []Op{
	OpAddI, OpSubI, OpNegI, OpAndI, OpOrI, OpXorI, OpShlI, OpShrI, OpUShrI,
	OpI2B, OpI2C, OpI2S,
}

var longALU = []Op{
	OpAddL, OpSubL, OpNegL, OpAndL, OpOrL, OpXorL, OpShlL, OpShrL, OpUShrL,
	OpCmpL, OpI2L, OpL2I,
}

var fpALU = []Op{
	OpAddF, OpSubF, OpMulF, OpNegF, OpCmpF,
	OpAddD, OpSubD, OpMulD, OpNegD, OpCmpD,
}

var fpConv = []Op{
	OpI2F, OpI2D, OpL2F, OpL2D, OpF2I, OpF2L, OpF2D, OpD2I, OpD2L, OpD2F,
}

var condBranches = []Op{OpIf, OpIfCmpI, OpIfCmpRef, OpIfNull}

var memOps = []Op{
	OpGetField, OpPutField, OpGetStatic, OpPutStatic, OpALoad, OpAStore,
	OpArrayLen,
}

var allocOps = []Op{OpNew, OpNewArray, OpANewArray}

var callOps = []Op{OpCallStatic, OpCallSpecial, OpCallVirtual, OpCallInterface}

// PPECosts returns the cost table for the PowerPC Processing Element.
//
// Calibration rationale: the PPE is a 2-way in-order core running
// baseline-compiled (stack-machine-shaped) code, which suffers pipeline
// and load-hit-store stalls; its hardware caches make memory cheap when
// they hit. Its scalar FPU is modelled slower than the SPE's
// (latency-bound under unscheduled baseline code), which is what lets the
// SPE win on floating-point workloads as in Figure 4(a).
func PPECosts() *CostTable {
	t := &CostTable{
		BranchTakenExtra:    4, // predictor resolves most; amortised penalty
		MethodPrologueBytes: 32,
	}
	fill16(&t.OpCost, 3, stackOps...) // load-hit-store stalls in stack-shaped code
	fill16(&t.OpCost, 1, intALU...)
	t.OpCost[OpMulI] = 6
	t.OpCost[OpDivI] = 24
	t.OpCost[OpRemI] = 28
	fill16(&t.OpCost, 2, longALU...)
	t.OpCost[OpMulL] = 9
	t.OpCost[OpDivL] = 40
	t.OpCost[OpRemL] = 44
	fill16(&t.OpCost, 6, fpALU...)
	t.OpCost[OpMulF] = 6
	t.OpCost[OpMulD] = 6
	t.OpCost[OpDivF] = 28
	t.OpCost[OpDivD] = 33
	t.OpCost[OpRemF] = 40
	t.OpCost[OpRemD] = 45
	fill16(&t.OpCost, 5, fpConv...)
	t.OpCost[OpGoto] = 2
	fill16(&t.OpCost, 3, condBranches...)
	t.OpCost[OpTableSwitch] = 6
	t.OpCost[OpLookupSwitch] = 10
	fill16(&t.OpCost, 12, callOps...)
	t.OpCost[OpCallVirtual] = 14 // extra vtable load
	t.OpCost[OpCallInterface] = 22
	t.OpCost[OpReturn] = 8
	fill16(&t.OpCost, 2, memOps...) // address generation; cache adds the rest
	fill16(&t.OpCost, 20, allocOps...)
	t.OpCost[OpInstanceOf] = 8
	t.OpCost[OpCheckCast] = 8
	t.OpCost[OpMonitorEnter] = 30 // lwarx/stwcx. sequence + sync
	t.OpCost[OpMonitorExit] = 20
	t.OpCost[OpThrow] = 40

	for o := Op(0); int(o) < NumOps; o++ {
		t.OpSize[o] = 4
	}
	fill8(&t.OpSize, 8, OpPushConst, OpGetField, OpPutField, OpGetStatic,
		OpPutStatic, OpALoad, OpAStore)
	fill8(&t.OpSize, 12, callOps...)
	fill8(&t.OpSize, 16, allocOps...)
	t.OpSize[OpMonitorEnter] = 24
	t.OpSize[OpMonitorExit] = 16
	return t
}

// SPECosts returns the cost table for a Synergistic Processing Element.
//
// Calibration rationale: the SPE's even/odd dual-issue pipelines make
// simple ALU and (hinted) straight-line code fast, and its FP pipeline is
// modelled faster than the PPE's (the SPE ISA is "highly tuned for
// floating point", §2). It has no scalar integer divider (software
// sequences), and unhinted taken branches pay a large flush penalty.
// Memory opcodes carry only the address-generation cost; the software
// data cache adds probe cycles on hits and DMA cycles on misses. Encoded
// sizes are larger than the PPE's because memory accesses expand to
// inline cache-probe sequences and branches carry hint slots — this size
// difference is what loads the code cache (Figure 7).
func SPECosts() *CostTable {
	t := &CostTable{
		BranchTakenExtra:    18, // unhinted taken branch flushes the pipe
		MethodPrologueBytes: 48,
	}
	fill16(&t.OpCost, 2, stackOps...)
	fill16(&t.OpCost, 2, intALU...)
	t.OpCost[OpMulI] = 7
	t.OpCost[OpDivI] = 60 // software divide
	t.OpCost[OpRemI] = 70
	fill16(&t.OpCost, 4, longALU...)
	t.OpCost[OpMulL] = 16
	t.OpCost[OpDivL] = 110
	t.OpCost[OpRemL] = 120
	fill16(&t.OpCost, 2, fpALU...)
	t.OpCost[OpMulF] = 2
	t.OpCost[OpMulD] = 3
	t.OpCost[OpDivF] = 12
	t.OpCost[OpDivD] = 14
	t.OpCost[OpRemF] = 30
	t.OpCost[OpRemD] = 36
	fill16(&t.OpCost, 4, fpConv...)
	t.OpCost[OpGoto] = 2 // hinted by the compiler
	fill16(&t.OpCost, 2, condBranches...)
	t.OpCost[OpTableSwitch] = 22 // indirect branch, unhintable
	t.OpCost[OpLookupSwitch] = 26
	fill16(&t.OpCost, 8, callOps...) // plus code-cache lookup, charged dynamically
	t.OpCost[OpCallVirtual] = 10
	t.OpCost[OpCallInterface] = 18
	t.OpCost[OpReturn] = 6
	fill16(&t.OpCost, 2, memOps...)
	fill16(&t.OpCost, 24, allocOps...) // allocation is a runtime call
	t.OpCost[OpInstanceOf] = 10
	t.OpCost[OpCheckCast] = 10
	t.OpCost[OpMonitorEnter] = 40 // atomic DMA (getllar/putllc equivalent)
	t.OpCost[OpMonitorExit] = 30
	t.OpCost[OpThrow] = 50

	for o := Op(0); int(o) < NumOps; o++ {
		t.OpSize[o] = 4
	}
	t.OpSize[OpPushConst] = 12 // constant formation (il/ilhu/iohl)
	fill8(&t.OpSize, 8, OpGoto)
	fill8(&t.OpSize, 8, condBranches...)
	fill8(&t.OpSize, 28, OpGetField, OpPutField, OpALoad, OpAStore)
	fill8(&t.OpSize, 20, OpGetStatic, OpPutStatic)
	t.OpSize[OpArrayLen] = 16
	t.OpSize[OpDivI] = 24
	t.OpSize[OpRemI] = 24
	t.OpSize[OpDivL] = 32
	t.OpSize[OpRemL] = 32
	fill8(&t.OpSize, 24, callOps...) // TOC/TIB/method lookup sequence
	fill8(&t.OpSize, 20, allocOps...)
	t.OpSize[OpMonitorEnter] = 32
	t.OpSize[OpMonitorExit] = 24
	t.OpSize[OpReturn] = 12 // re-lookup of caller on return (§3.2.2)
	return t
}
