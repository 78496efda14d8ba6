package isa

import (
	"fmt"
	"strings"
)

// CoreKind identifies one processor core kind: an index into the
// fixed kind table below, so kinds index arrays cheaply. The VM never
// switches on a particular kind — everything it needs to know (memory
// model, branch model, cost table, runtime-service capability) is a
// capability query on the kind's row, which is what lets a new kind be
// added by data alone: one row plus its cost-table function.
type CoreKind uint8

// The machine's kinds. The numeric values are load-bearing: topology
// order, scheduling tie-breaks, the memory-layout carve order and the
// experiment tables all follow them.
const (
	// PPE is the PowerPC Processing Element: the single general-purpose
	// core with coherent hardware caches and OS support.
	PPE CoreKind = iota
	// SPE is a Synergistic Processing Element: a floating-point-oriented
	// core with a 256 KB local store and no direct main-memory access.
	SPE
	// VPU is the GPU-like wide Vector Processing Unit (vpu.go).
	VPU

	// NumKinds is how many kinds the table holds.
	NumKinds = iota
)

// KindSpec describes one core kind: its name, how to build its cost
// table, and the capabilities that drive every kind-dependent decision
// in the machine model and the runtime.
type KindSpec struct {
	// Name is the canonical upper-case kind name ("PPE", "SPE", ...);
	// topology strings and ParseCoreKind match it case-insensitively.
	Name string

	// NewCosts builds a fresh cost table for the kind (static per-opcode
	// cycle costs, encoded sizes, branch penalty, prologue shape).
	NewCosts func() *CostTable

	// LocalStore selects the kind's memory model: true means an
	// SPE-style scratchpad local store reached through software data and
	// code caches plus DMA; false means hardware-coherent caches in
	// front of main memory. Every local-store core has the machine's one
	// local-store size and cache split.
	LocalStore bool

	// HostsServices reports whether the kind can host the runtime
	// services: the collector, the syscall mailbox service thread and OS
	// support. Every bootable topology needs at least one core of a
	// service-capable kind.
	HostsServices bool

	// BranchPredictor selects the branch model: true gives each core a
	// hardware predictor (mispredicts charged probabilistically); false
	// models static compiler hints, charging the cost table's
	// BranchTakenExtra on every taken conditional branch.
	BranchPredictor bool

	// MemAccessCycles estimates the average dynamic cost of one heap
	// access on this kind (hardware-cache hit latency, or software-cache
	// probe plus amortised DMA). Placement policies rank kinds by it for
	// memory-bound work; it does not feed the cycle-accurate simulation.
	MemAccessCycles float64

	// MigrateAffinity scales the predicted cost of running migrated-in
	// work on this kind, as seen by the cross-kind migration cost gate
	// and the drain-time placement estimate. 1.0 (the zero value's
	// meaning) is neutral; values above 1 make the kind a reluctant
	// migration target — its cores must be proportionally more idle
	// before the gate lets arbitrary mid-method work land there (the
	// VPU sets 1.5: cheap FP does not make scalar, branchy work fast).
	// Values below 1 would advertise a kind as a preferred sink.
	MigrateAffinity float64
}

// kindSpecs is the kind table: kindSpecs[k] describes kind k. The VPU's
// row lives beside its cost table in vpu.go.
var kindSpecs = [NumKinds]KindSpec{
	PPE: {
		Name:            "PPE",
		NewCosts:        PPECosts,
		HostsServices:   true,
		BranchPredictor: true,
		MemAccessCycles: 6, // mostly L1 hits at 4 cycles, occasional L2/main
	},
	SPE: {
		Name:            "SPE",
		NewCosts:        SPECosts,
		LocalStore:      true,
		MemAccessCycles: 30, // probe + access + amortised DMA misses
	},
	VPU: vpuSpec,
}

// kindTables caches one cost table per kind, built once at package
// init, for the capability and score queries (compilers build their
// own via Costs).
var kindTables = func() (t [NumKinds]*CostTable) {
	for k, s := range kindSpecs {
		t[k] = s.NewCosts()
	}
	return t
}()

// spec returns the descriptor for a kind. It panics for an unknown
// kind; use Known to probe.
func spec(k CoreKind) KindSpec {
	if !k.Known() {
		// Internal invariant, unreachable because a kind from outside the
		// program arrives by name through ParseCoreKind (CLI, job image)
		// or in a topology cell.NewMachine checks with Known.
		panic(fmt.Sprintf("isa: unknown core kind %d", k))
	}
	return kindSpecs[k]
}

// Known reports whether k is one of the table's kinds.
func (k CoreKind) Known() bool { return k < NumKinds }

// CoreKinds lists every core kind in table order (the order machine
// topologies, memory layouts and reports enumerate kinds).
func CoreKinds() []CoreKind {
	out := make([]CoreKind, NumKinds)
	for i := range out {
		out[i] = CoreKind(i)
	}
	return out
}

// String returns the kind name, or "kind(N)" for a value no kind owns.
func (k CoreKind) String() string {
	if !k.Known() {
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
	return kindSpecs[k].Name
}

// KindSet is a set of core kinds, one bit per kind.
type KindSet uint8

// With returns s with k added.
func (s KindSet) With(k CoreKind) KindSet { return s | 1<<k }

// Has reports whether k is in s.
func (s KindSet) Has(k CoreKind) bool { return s&(1<<k) != 0 }

// String joins the set's kind names in table order with "+"
// ("PPE+SPE"); the empty set is "".
func (s KindSet) String() string {
	var names []string
	for _, k := range CoreKinds() {
		if s.Has(k) {
			names = append(names, k.String())
		}
	}
	return strings.Join(names, "+")
}

// ParseCoreKind parses a kind name ("ppe", "spe", "vpu", any case).
func ParseCoreKind(s string) (CoreKind, error) {
	for i, e := range kindSpecs {
		if strings.EqualFold(e.Name, s) {
			return CoreKind(i), nil
		}
	}
	names := make([]string, len(kindSpecs))
	for i, e := range kindSpecs {
		names[i] = strings.ToLower(e.Name)
	}
	return 0, fmt.Errorf("isa: unknown core kind %q (want %s)", s, strings.Join(names, ", "))
}

// Costs returns a fresh default cost table for the given kind. Each
// compiler owns its table; mutating the result never affects the
// cached copy used by the score queries.
func Costs(k CoreKind) *CostTable {
	return spec(k).NewCosts()
}

// UsesLocalStore reports whether the kind reaches memory through an
// SPE-style local store with software caches and DMA (true), or through
// hardware-coherent caches (false).
func (k CoreKind) UsesLocalStore() bool { return k.Known() && kindSpecs[k].LocalStore }

// HostsServices reports whether the kind can host the runtime services
// (GC, the syscall mailbox service thread, OS support).
func (k CoreKind) HostsServices() bool { return k.Known() && kindSpecs[k].HostsServices }

// PredictsBranches reports whether cores of the kind carry a hardware
// branch predictor (false means static hints with a fixed taken-branch
// penalty).
func (k CoreKind) PredictsBranches() bool { return k.Known() && kindSpecs[k].BranchPredictor }

// FPScore is the kind's predicted per-operation floating-point cost,
// averaged over the common FP arithmetic opcodes. Placement policies
// send FP-dominated work to the kind that minimises it.
func (k CoreKind) FPScore() float64 {
	spec(k) // descriptive panic for unknown kinds
	t := kindTables[k]
	return float64(uint64(t.OpCost[OpAddF])+uint64(t.OpCost[OpMulF])+
		uint64(t.OpCost[OpAddD])+uint64(t.OpCost[OpMulD])) / 4
}

// MemScore is the kind's predicted cost of one heap access: the static
// address-generation cost plus the spec's dynamic estimate. Placement
// policies send memory-dominated work to the kind that minimises it.
func (k CoreKind) MemScore() float64 {
	s := spec(k)
	return float64(kindTables[k].OpCost[OpGetField]) + s.MemAccessCycles
}

// MigrateAffinity is the kind's migration-cost multiplier: the factor
// the cross-kind migration gate and the drain-time placement estimate
// apply to predicted per-task service cost on this kind. An unset spec
// (zero) normalizes to the neutral 1.0.
func (k CoreKind) MigrateAffinity() float64 {
	s := spec(k)
	if s.MigrateAffinity == 0 {
		return 1
	}
	return s.MigrateAffinity
}
