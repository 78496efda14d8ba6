package vm

import (
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// Policy decides thread placement: where new threads start and whether a
// method invocation should migrate the calling thread to another core
// kind. This is the paper's central control point — "the runtime system
// transparently maps application threads to the underlying heterogeneous
// core types, using information about each thread's behaviour (either
// through code annotations or runtime monitoring)".
type Policy interface {
	// PlaceThread chooses the core kind for a newly started thread whose
	// entry method is m.
	PlaceThread(vm *VM, m *classfile.Method) isa.CoreKind
	// OnInvoke chooses the core kind on which callee should execute;
	// returning a kind different from cur requests a migration.
	OnInvoke(vm *VM, t *Thread, callee *classfile.Method, cur isa.CoreKind) isa.CoreKind
}

// serviceKind is the kind of the core hosting the runtime services —
// the general-purpose, OS-capable kind unannotated threads start on and
// every fallback lands on.
func (vm *VM) serviceKind() isa.CoreKind { return vm.service.Kind }

// cheapestKind returns the machine's kind minimising the given
// predicted-cost score (ties break toward the earlier kind in table
// order, keeping the choice deterministic). The second result is false
// when the machine is homogeneous — with a single kind there is no
// placement decision to make, so callers skip migration entirely.
func (vm *VM) cheapestKind(score func(isa.CoreKind) float64) (isa.CoreKind, bool) {
	if len(vm.presentKinds) < 2 {
		return vm.serviceKind(), false
	}
	best := vm.presentKinds[0]
	bestScore := score(best)
	for _, k := range vm.presentKinds[1:] {
		if s := score(k); s < bestScore {
			best, bestScore = k, s
		}
	}
	return best, true
}

// AnnotationPolicy is the paper's annotation-hint scheme (§3): explicit
// RunOnSPE/RunOnPPE start placement, with FloatIntensive sending the thread
// to the kind with the cheapest predicted floating point and
// MemoryIntensive to the kind with the cheapest predicted memory
// access. Unannotated code stays where it is.
type AnnotationPolicy struct{}

// PlaceThread places annotated entry methods accordingly; unannotated
// threads start on the service kind (the general-purpose, OS-capable
// core).
func (AnnotationPolicy) PlaceThread(vm *VM, m *classfile.Method) isa.CoreKind {
	if k, ok := annotationKind(vm, m); ok {
		return k
	}
	return vm.serviceKind()
}

// OnInvoke migrates on annotated methods only.
func (AnnotationPolicy) OnInvoke(vm *VM, t *Thread, callee *classfile.Method, cur isa.CoreKind) isa.CoreKind {
	if k, ok := annotationKind(vm, callee); ok {
		return k
	}
	return cur
}

// annotationKind maps a method's placement annotations to a core kind.
// RunOnSPE/RunOnPPE name the kind the method starts on, or is migrated
// to when invoked (ignored when the machine lacks it): a start
// placement, not a pin, since the scheduler's migration pass may move
// the thread to another kind later like any other. The behavioural
// hints pick the kind minimising the predicted cost of the hinted
// behaviour, so a newly added kind participates without the policy
// naming it.
func annotationKind(vm *VM, m *classfile.Method) (isa.CoreKind, bool) {
	switch {
	case m.Annotations[classfile.AnnRunOnSPE]:
		if vm.Machine.HasKind(isa.SPE) {
			return isa.SPE, true
		}
	case m.Annotations[classfile.AnnFloatIntensive]:
		if k, ok := vm.cheapestKind(isa.CoreKind.FPScore); ok {
			return k, true
		}
	case m.Annotations[classfile.AnnRunOnPPE]:
		if vm.Machine.HasKind(isa.PPE) {
			return isa.PPE, true
		}
	case m.Annotations[classfile.AnnMemoryIntensive]:
		if k, ok := vm.cheapestKind(isa.CoreKind.MemScore); ok {
			return k, true
		}
	}
	return vm.serviceKind(), false
}

// FixedPolicy pins every thread to one core kind and never migrates.
// The experiment harness uses it to reproduce Figure 4's "run entirely
// on the PPE" / "run entirely on N SPEs" configurations.
type FixedPolicy struct {
	Kind isa.CoreKind
}

// PlaceThread returns the fixed kind (or the service kind when the
// topology has no core of that kind).
func (p FixedPolicy) PlaceThread(vm *VM, m *classfile.Method) isa.CoreKind {
	if !vm.Machine.HasKind(p.Kind) {
		return vm.serviceKind()
	}
	return p.Kind
}

// OnInvoke never migrates.
func (p FixedPolicy) OnInvoke(vm *VM, t *Thread, callee *classfile.Method, cur isa.CoreKind) isa.CoreKind {
	return cur
}

// MonitoringPolicy implements the paper's proposed runtime-monitoring
// placement (§6): it watches per-method cycle composition gathered by
// the ledger (ledger.go) and migrates threads into methods whose observed
// behaviour clearly favours one core kind — the kind with the lowest
// predicted cost for the dominant behaviour, not a hard-coded one.
// Methods need monitorMinCycles of observation before a decision is
// made; annotated methods still win.
type MonitoringPolicy struct{}

// The monitoring thresholds, matched to the paper's Figure 5 analysis
// (mandelbrot ~40%+ FP -> SPE; compress' dominant main-memory share ->
// PPE): a method whose floating-point cycle share reaches fpThreshold
// migrates to the cheapest-FP kind, one whose main-memory share reaches
// memThreshold to the cheapest-memory kind.
const (
	fpThreshold      = 0.25
	memThreshold     = 0.45
	monitorMinCycles = 100_000
)

// DefaultMonitoringPolicy returns the monitoring policy.
func DefaultMonitoringPolicy() *MonitoringPolicy { return &MonitoringPolicy{} }

// PlaceThread starts threads on the service kind until monitoring says
// otherwise.
func (p *MonitoringPolicy) PlaceThread(vm *VM, m *classfile.Method) isa.CoreKind {
	if k, ok := annotationKind(vm, m); ok {
		return k
	}
	if k, ok := p.observedKind(vm, m); ok {
		return k
	}
	return vm.serviceKind()
}

// OnInvoke consults annotations first, then observed behaviour. A
// callee whose observed invocation is shorter than the fixed price of
// the round trip — a migration there and one back — stays on the
// caller's kind: the move would cost more than the callee runs.
func (p *MonitoringPolicy) OnInvoke(vm *VM, t *Thread, callee *classfile.Method, cur isa.CoreKind) isa.CoreKind {
	if k, ok := annotationKind(vm, callee); ok {
		return k
	}
	if k, ok := p.observedKind(vm, callee); ok {
		if c := vm.ledger[callee.ID]; c.Busy() < 2*migrationBaseCycles*c.Invokes {
			return cur
		}
		return k
	}
	return cur
}

func (p *MonitoringPolicy) observedKind(vm *VM, m *classfile.Method) (isa.CoreKind, bool) {
	if len(vm.presentKinds) < 2 {
		return vm.serviceKind(), false
	}
	c := vm.ledger[m.ID]
	if c == nil {
		return vm.serviceKind(), false
	}
	if c.Busy() < monitorMinCycles {
		return vm.serviceKind(), false
	}
	if c.FPShare() >= fpThreshold {
		return vm.cheapestKind(isa.CoreKind.FPScore)
	}
	if c.MemShare() >= memThreshold {
		return vm.cheapestKind(isa.CoreKind.MemScore)
	}
	return vm.serviceKind(), false
}
