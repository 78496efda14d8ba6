package vm

import (
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// framedThread makes a thread of a job of its own on kind's core
// coreID, its one frame a library method compiled for every kind the
// machine has — so a move recompiles nothing, and the scheduler finds a
// frame on top, as on every thread it queues.
func framedThread(t *testing.T, vm *VM, name string, kind isa.CoreKind, coreID int) *Thread {
	t.Helper()
	m := vm.Prog.Lookup("java/lang/Object").MethodByName("equals")
	th := vm.newThread(&Job{}, name)
	th.Kind, th.CoreID = kind, coreID
	for _, k := range vm.presentKinds {
		cm, _, err := vm.compileFor(k, m)
		if err != nil {
			t.Fatal(err)
		}
		if k == kind {
			f := newFrame(cm)
			vm.profileFrame(f)
			th.pushFrame(f)
		}
	}
	return th
}

// topoConfig returns the small test machine reshaped to a topology.
func topoConfig(topo cell.Topology) Config {
	cfg := testConfig()
	cfg.Machine.Topology = topo
	return cfg
}

// buildAnnotatedDoubler returns a program whose main calls an
// SPE-annotated doubling method once (a single migration round trip on
// machines with SPEs).
func buildAnnotatedDoubler() *classfile.Program {
	p := newProg()
	c := p.NewClass("Mig", nil)
	hot := c.NewMethod("hot", classfile.FlagStatic, classfile.Int, classfile.Int).
		Annotate(classfile.AnnRunOnSPE)
	{
		a := hot.Asm()
		a.LoadI(0)
		a.ConstI(2)
		a.MulI()
		a.Ret()
		a.MustBuild()
	}
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	a.ConstI(21)
	a.InvokeStatic(hot)
	a.Ret()
	a.MustBuild()
	return p
}

func TestPickCoreLeastLoadedTieBreak(t *testing.T) {
	vm, err := New(topoConfig(cell.PS3Topology(3)), newProg())
	if err != nil {
		t.Fatal(err)
	}
	// Empty queues, equal clocks: ties resolve to the lowest ID.
	if got := vm.pickCore(isa.SPE); got != 0 {
		t.Errorf("all-idle pick = SPE%d, want SPE0", got)
	}
	// A queued thread on SPE0 makes it heavier than its siblings.
	busy := framedThread(t, vm, "busy", isa.SPE, 0)
	vm.enqueue(busy)
	if got := vm.pickCore(isa.SPE); got != 1 {
		t.Errorf("pick with SPE0 loaded = SPE%d, want SPE1", got)
	}
	// Equal loads: the earliest local clock wins.
	vm.Machine.CoreAt(isa.SPE, 1).Now = 100
	if got := vm.pickCore(isa.SPE); got != 2 {
		t.Errorf("pick with SPE1 ahead = SPE%d, want SPE2", got)
	}
	// The kind-generalized pool also balances PPEs on multi-PPE machines.
	vm2, err := New(topoConfig(cell.Topology{{Kind: isa.PPE, Count: 2}}), newProg())
	if err != nil {
		t.Fatal(err)
	}
	first := framedThread(t, vm2, "first", isa.PPE, 0)
	vm2.place(first, isa.PPE)
	vm2.enqueue(first)
	second := framedThread(t, vm2, "second", isa.PPE, 0)
	vm2.place(second, isa.PPE)
	if first.CoreID == second.CoreID {
		t.Errorf("two threads placed on PPE%d; multi-PPE placement should spread", first.CoreID)
	}
}

// TestPickCoreVPUPoolOnThreeKindTopology asserts the pickCore
// tie-breaking contract for the third kind's pool on a three-kind
// machine: lowest ID on a fresh machine, then load, then clock skew —
// the same ordering the SPE case above pins down.
func TestPickCoreVPUPoolOnThreeKindTopology(t *testing.T) {
	topo := cell.Topology{
		{Kind: isa.PPE, Count: 1}, {Kind: isa.SPE, Count: 2}, {Kind: isa.VPU, Count: 3},
	}
	vm, err := New(topoConfig(topo), newProg())
	if err != nil {
		t.Fatal(err)
	}
	// Empty queues, equal clocks: ties resolve to the lowest ID.
	if got := vm.pickCore(isa.VPU); got != 0 {
		t.Errorf("all-idle pick = VPU%d, want VPU0", got)
	}
	// A queued thread on VPU0 pushes its drain estimate past its idle
	// siblings'.
	busy := framedThread(t, vm, "busy", isa.VPU, 0)
	vm.enqueue(busy)
	if got := vm.pickCore(isa.VPU); got != 1 {
		t.Errorf("pick with VPU0 loaded = VPU%d, want VPU1", got)
	}
	// Equal loads: the earliest clock (smallest skew) wins.
	vm.Machine.CoreAt(isa.VPU, 1).Now = 100
	if got := vm.pickCore(isa.VPU); got != 2 {
		t.Errorf("pick with VPU1 ahead = VPU%d, want VPU2", got)
	}
	// Drain weighting: queue depth and clock skew are one currency —
	// an idle core whose clock has skewed further ahead than a queued
	// task's predicted cost loses to the loaded core at clock zero,
	// which the old least-loaded-first rule would never allow.
	taskCost := vm.taskCost(nil, vm.Machine.CoreAt(isa.VPU, 0))
	vm.Machine.CoreAt(isa.VPU, 1).Now = cell.Clock(taskCost) + 2
	vm.Machine.CoreAt(isa.VPU, 2).Now = cell.Clock(taskCost) + 1
	if got := vm.pickCore(isa.VPU); got != 0 {
		t.Errorf("pick with idle VPUs skewed past one task's cost = VPU%d, want the loaded VPU0", got)
	}
	// The VPU's migration affinity prices its queue drain above an
	// SPE's for the same depth (reluctant target), while same-kind
	// pools are unaffected by the scaling.
	spe := vm.Machine.CoreAt(isa.SPE, 0)
	if vpuCost := vm.taskCost(nil, vm.Machine.CoreAt(isa.VPU, 0)); vpuCost <= vm.taskCost(nil, spe) {
		t.Errorf("VPU per-task cost %d not above SPE's %d", vpuCost, vm.taskCost(nil, spe))
	}
}

// TestBehaviourCostPrefersVPUForFPHeavy pins the behaviour-aware task
// pricing: once a thread's innermost method has been observed long
// enough, an FP-dominated cycle composition must price the thread's
// drain cheaper on a VPU core than on an equally-loaded SPE — even
// though the VPU's static migration affinity says the opposite — so
// the migrate gate and drain estimates route FP-heavy work onto the
// vector pool. Cold threads keep the static affinity ordering, and
// memory-heavy threads go to the kind with the cheapest memory.
func TestBehaviourCostPrefersVPUForFPHeavy(t *testing.T) {
	topo := cell.Topology{
		{Kind: isa.PPE, Count: 1}, {Kind: isa.SPE, Count: 4}, {Kind: isa.VPU, Count: 2},
	}
	vm, err := New(topoConfig(topo), newProg())
	if err != nil {
		t.Fatal(err)
	}
	spe := vm.Machine.CoreAt(isa.SPE, 0)
	vpu := vm.Machine.CoreAt(isa.VPU, 0)

	mkThread := func(name string, fp, mem, other uint64) *Thread {
		th := vm.newThread(&Job{}, name)
		ctr := &methodCounters{}
		ctr.Cycles[isa.ClassFloat] = fp
		ctr.Cycles[isa.ClassMainMem] = mem
		ctr.Cycles[isa.ClassInt] = other
		th.pushFrame(&Frame{ctr: ctr})
		return th
	}

	// FP-heavy and observed: the VPU must undercut the SPE.
	hot := mkThread("fp-hot", 80_000, 10_000, 10_000)
	if v, s := vm.taskCost(hot, vpu), vm.taskCost(hot, spe); v >= s {
		t.Errorf("FP-heavy observed thread: VPU cost %d not below SPE cost %d", v, s)
	}

	// Same composition but under the observation floor: static affinity
	// pricing holds, so the reluctant VPU stays the dearer target.
	cold := mkThread("fp-cold", 8_000, 1_000, 1_000)
	if v, s := vm.taskCost(cold, vpu), vm.taskCost(cold, spe); v <= s {
		t.Errorf("cold thread: VPU cost %d not above SPE cost %d (affinity pricing expected)", v, s)
	}

	// Memory-heavy and observed: the PPE's coherent caches win over
	// both local-store kinds, and the VPU (worst memory) prices highest.
	memHot := mkThread("mem-hot", 5_000, 85_000, 10_000)
	ppe := vm.Machine.CoreAt(isa.PPE, 0)
	if p, s, v := vm.taskCost(memHot, ppe), vm.taskCost(memHot, spe), vm.taskCost(memHot, vpu); !(p < s && s < v) {
		t.Errorf("memory-heavy observed thread: want PPE < SPE < VPU, got %d, %d, %d", p, s, v)
	}
}

// TestBehaviourCostWithoutVPU: behaviour-aware pricing holds on every
// machine, not only on one with a VPU. On the paper's PPE+SPE shape an
// observed FP-heavy thread is priced by its shares, so the two kinds
// differ and the one with the lower FPScore is the cheaper; a cold
// thread on the same machine still costs one quantum on either kind.
func TestBehaviourCostWithoutVPU(t *testing.T) {
	topo := cell.Topology{{Kind: isa.PPE, Count: 1}, {Kind: isa.SPE, Count: 6}}
	vm, err := New(topoConfig(topo), newProg())
	if err != nil {
		t.Fatal(err)
	}
	ppe := vm.Machine.CoreAt(isa.PPE, 0)
	spe := vm.Machine.CoreAt(isa.SPE, 0)
	mk := func(fp, other uint64) *Thread {
		th := vm.newThread(&Job{}, "fp")
		ctr := &methodCounters{}
		ctr.Cycles[isa.ClassFloat] = fp
		ctr.Cycles[isa.ClassInt] = other
		th.pushFrame(&Frame{ctr: ctr})
		return th
	}

	hot := mk(behaviourMinCycles*9/10, behaviourMinCycles/5)
	p, s := vm.taskCost(hot, ppe), vm.taskCost(hot, spe)
	if p == s {
		t.Fatalf("FP-heavy observed thread costs %d on both the PPE and the SPE", p)
	}
	cheaper, dearer := isa.PPE, isa.SPE
	if isa.SPE.FPScore() < isa.PPE.FPScore() {
		cheaper, dearer = dearer, cheaper
	}
	if got := map[isa.CoreKind]uint64{isa.PPE: p, isa.SPE: s}; got[cheaper] > got[dearer] {
		t.Errorf("FP-heavy observed thread: %v (FPScore %.1f) costs %d, above %v (FPScore %.1f) at %d",
			cheaper, cheaper.FPScore(), got[cheaper], dearer, dearer.FPScore(), got[dearer])
	}

	cold := mk(behaviourMinCycles/2, 0)
	for _, c := range []*cell.Core{ppe, spe} {
		if got, want := vm.taskCost(cold, c), vm.taskCost(nil, c); got != want {
			t.Errorf("cold thread on %v costs %d, want the affinity price %d", c.Kind, got, want)
		}
	}
}

func TestPlaceFallsBackToPPEWithoutSPEs(t *testing.T) {
	// A PPE-only topology must still run SPE-annotated code (on the PPE)
	// under every placement policy that could request an SPE.
	for name, policy := range map[string]Policy{
		"fixed-spe":  FixedPolicy{Kind: isa.SPE},
		"annotation": AnnotationPolicy{},
	} {
		cfg := topoConfig(cell.PS3Topology(0))
		cfg.Policy = policy
		vm, th := runMain(t, cfg, buildAnnotatedDoubler(), "Mig", "main")
		if got := int32(uint32(th.Result)); got != 42 {
			t.Errorf("%s: result = %d, want 42", name, got)
		}
		if th.Migrations != 0 {
			t.Errorf("%s: thread migrated %d times on a PPE-only machine", name, th.Migrations)
		}
		if vm.Machine.CoresOf(isa.PPE)[0].Stats.Instrs == 0 {
			t.Errorf("%s: PPE never executed", name)
		}
	}
}

func TestMigrationRoundTripOnAsymmetricTopology(t *testing.T) {
	topo := cell.Topology{{Kind: isa.PPE, Count: 2}, {Kind: isa.SPE, Count: 2}}
	vm, th := runMain(t, topoConfig(topo), buildAnnotatedDoubler(), "Mig", "main")
	if got := int32(uint32(th.Result)); got != 42 {
		t.Errorf("result across migration: %d, want 42", got)
	}
	if th.Migrations < 2 {
		t.Errorf("expected a PPE->SPE->PPE round trip, got %d migrations", th.Migrations)
	}
	var ppeOut, speIn uint64
	for _, p := range vm.Machine.CoresOf(isa.PPE) {
		ppeOut += p.Stats.MigrationsOut
	}
	for _, s := range vm.Machine.CoresOf(isa.SPE) {
		speIn += s.Stats.MigrationsIn
	}
	if ppeOut == 0 || speIn == 0 {
		t.Errorf("migration stats empty: ppe out=%d spe in=%d", ppeOut, speIn)
	}
}

func TestWorkersSpreadAcrossAsymmetricMachine(t *testing.T) {
	// Six SPE-annotated workers on a 2 PPE + 2 SPE machine: the total
	// must be exact (JMM coherence) and both SPEs must see work.
	topo := cell.Topology{{Kind: isa.PPE, Count: 2}, {Kind: isa.SPE, Count: 2}}
	p := buildWorkerProgram(6, classfile.AnnRunOnSPE)
	vm, th := runMain(t, topoConfig(topo), p, "Main", "main")
	if got := int32(uint32(th.Result)); got != 2100 {
		t.Errorf("total = %d, want 2100", got)
	}
	for i, s := range vm.Machine.CoresOf(isa.SPE) {
		if s.Stats.Instrs == 0 {
			t.Errorf("SPE%d never executed", i)
		}
	}
}

// TestSchedulingDeterminism runs the same multi-threaded, migrating
// workload twice and demands bit-identical machine time and instruction
// counts: the event-calendar scheduler must break every tie
// deterministically.
func TestSchedulingDeterminism(t *testing.T) {
	run := func() (cell.Clock, []uint64) {
		topo := cell.Topology{{Kind: isa.PPE, Count: 2}, {Kind: isa.SPE, Count: 2}}
		p := buildWorkerProgram(6, classfile.AnnRunOnSPE)
		vm, th := runMain(t, topoConfig(topo), p, "Main", "main")
		if th.Trap != nil {
			t.Fatal(th.Trap)
		}
		var instrs []uint64
		for _, c := range vm.Machine.Cores() {
			instrs = append(instrs, c.Stats.Instrs)
		}
		return vm.Machine.MaxClock(), instrs
	}
	clockA, instrsA := run()
	clockB, instrsB := run()
	if clockA != clockB {
		t.Errorf("cycle counts differ across identical runs: %d vs %d", clockA, clockB)
	}
	for i := range instrsA {
		if instrsA[i] != instrsB[i] {
			t.Errorf("core %d instruction counts differ: %d vs %d", i, instrsA[i], instrsB[i])
		}
	}
}

// TestSteadyStateQuantaAllocateNothing: once a local-store run has
// settled, advancing it by RunUntil allocates nothing on the host. The
// program is buildComputeWorkers' SPE workers: each counts in its locals
// only, so after warm-up no page is mapped, no method compiled and no
// cache block staged, and what is left per quantum is the executor and
// the scheduler.
func TestSteadyStateQuantaAllocateNothing(t *testing.T) {
	cfg := testConfig()
	v, err := New(cfg, buildComputeWorkers(4, 1<<22))
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := v.Submit(JobSpec{Name: "main", Class: "Main", Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.RunUntil(v.Machine.MaxClock() + 200_000); err != nil {
		t.Fatal(err)
	}
	step := func() {
		if err := v.RunUntil(v.Machine.MaxClock() + 4*cfg.Quantum); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(50, step); got != 0 {
		t.Errorf("RunUntil allocates %v per call of four quanta, want 0", got)
	}
	if j.Done() {
		t.Fatal("the workers finished while measured: nothing was left to schedule")
	}
}
