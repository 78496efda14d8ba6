package vm

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
)

// kernelTopology returns the showcase accelerator mix: one PPE, four
// SPEs and two VPUs — the pool planner must pick the VPUs (FPScore over
// cores×SPMD width: 1.25/(2·8) beats 2.25/(4·1)).
func kernelTopology() cell.Topology {
	return cell.Topology{
		{Kind: isa.PPE, Count: 1}, {Kind: isa.SPE, Count: 4}, {Kind: isa.VPU, Count: 2},
	}
}

// buildKernelProg builds the differential pair: a hera/Kernel body that
// folds in[i]*(i+7) into a synchronized accumulator per iteration
// (wrapping int add — commutative, so the total is invariant under any
// chunking), a "main" that launches it through Parallel.forRange, and a
// "scalar" entry that calls body.run(0, n) sequentially on the calling
// thread. Both read the same input and must produce the same total.
func buildKernelProg(n int32) *classfile.Program {
	p := newProg()
	kern := p.Lookup("hera/Kernel")
	parallel := p.Lookup("hera/Parallel")

	chk := p.NewClass("KChk", nil)
	totalF := chk.NewStaticField("total", classfile.Int)
	add := chk.NewMethod("add", classfile.FlagStatic|classfile.FlagSynchronized,
		classfile.Void, classfile.Int)
	{
		a := add.Asm()
		a.GetStatic(totalF)
		a.LoadI(0)
		a.AddI()
		a.PutStatic(totalF)
		a.RetVoid()
		a.MustBuild()
	}

	body := p.NewClass("ScaleBody", kern)
	inF := body.NewField("in", classfile.Ref)
	run := body.NewMethod("run", 0, classfile.Void, classfile.Int, classfile.Int)
	{
		// locals: 0=this 1=from 2=to 3=i 4=chk
		a := run.Asm()
		loop, done := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(4)
		a.LoadI(1)
		a.StoreI(3)
		a.Bind(loop)
		a.LoadI(3)
		a.LoadI(2)
		a.IfICmpGE(done)
		a.LoadI(4)
		a.LoadRef(0)
		a.GetField(inF)
		a.LoadI(3)
		a.ALoad(classfile.ElemInt)
		a.LoadI(3)
		a.ConstI(7)
		a.AddI()
		a.MulI()
		a.AddI()
		a.StoreI(4)
		a.Inc(3, 1)
		a.Goto(loop)
		a.Bind(done)
		a.LoadI(4)
		a.InvokeStatic(add)
		a.RetVoid()
		a.MustBuild()
	}

	// buildEntry assembles the shared prologue — allocate and fill in[],
	// build the body — then lets each variant emit its launch.
	buildEntry := func(name string, launch func(a *classfile.Asm, runM *classfile.Method)) {
		cls := p.NewClass(name, nil)
		m := cls.NewMethod("main", classfile.FlagStatic, classfile.Int)
		// locals: 0=in 1=body 2=i
		a := m.Asm()
		a.ConstI(n)
		a.NewArray(classfile.ElemInt)
		a.StoreRef(0)
		loop, done := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(2)
		a.Bind(loop)
		a.LoadI(2)
		a.ConstI(n)
		a.IfICmpGE(done)
		a.LoadRef(0)
		a.LoadI(2)
		a.LoadI(2)
		a.ConstI(13)
		a.MulI()
		a.ConstI(5)
		a.SubI()
		a.AStore(classfile.ElemInt)
		a.Inc(2, 1)
		a.Goto(loop)
		a.Bind(done)
		a.New(body)
		a.Dup()
		a.LoadRef(0)
		a.PutField(inF)
		a.StoreRef(1)
		launch(a, run)
		a.GetStatic(totalF)
		a.Ret()
		a.MustBuild()
	}
	buildEntry("KMain", func(a *classfile.Asm, runM *classfile.Method) {
		a.ConstI(0)
		a.ConstI(n)
		a.LoadRef(1)
		a.InvokeStatic(parallel.MethodByName("forRange"))
	})
	buildEntry("KScalar", func(a *classfile.Asm, runM *classfile.Method) {
		a.LoadRef(1)
		a.ConstI(0)
		a.ConstI(n)
		a.InvokeVirtual(runM)
	})
	return p
}

// kernelExpected mirrors the body in Go with the same 32-bit wrap.
func kernelExpected(n int32) int32 {
	var total int32
	for i := int32(0); i < n; i++ {
		total += (i*13 - 5) * (i + 7)
	}
	return total
}

func runKernelJob(t *testing.T, topo cell.Topology, entry string, n int32) (*VM, *Job) {
	t.Helper()
	cfg := testConfig()
	cfg.Machine.Topology = topo
	v, err := New(cfg, buildKernelProg(n))
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := v.Submit(JobSpec{Name: entry, Class: entry, Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	return v, j
}

// TestKernelLaunchComputesAndJoins: a forRange launch on the VPU-bearing
// topology fans out one pinned worker per VPU, produces the sequential
// answer, bills real staging DMA, and the caller resumes past the
// barrier.
func TestKernelLaunchComputesAndJoins(t *testing.T) {
	const n = 600
	v, j := runKernelJob(t, kernelTopology(), "KMain", n)
	if got := int32(uint32(j.Root().Result)); got != kernelExpected(n) {
		t.Errorf("kernel total = %d, want %d", got, kernelExpected(n))
	}
	if j.Stats.KernelLaunches != 1 {
		t.Errorf("KernelLaunches = %d, want 1", j.Stats.KernelLaunches)
	}
	if j.Stats.KernelWorkers != 2 { // the two VPUs win the pool score
		t.Errorf("KernelWorkers = %d, want the 2 VPU cores", j.Stats.KernelWorkers)
	}
	if j.Stats.KernelDMABytes == 0 {
		t.Error("no staging DMA billed on a local-store pool")
	}
	var vpuStaged, vpuInstrs uint64
	for _, c := range v.Machine.CoresOf(isa.VPU) {
		vpuStaged += c.Stats.DataStaged
		vpuInstrs += c.Stats.Instrs
	}
	if vpuStaged == 0 {
		t.Error("VPU cores staged no tiles")
	}
	if vpuInstrs == 0 {
		t.Error("the kernel never executed on the VPUs")
	}
	// Pinned workers must never migrate or be stolen.
	for _, th := range v.threads {
		if th.pinned && (th.Migrations != 0 || th.Steals != 0) {
			t.Errorf("%s: migrations=%d steals=%d, want 0/0", th, th.Migrations, th.Steals)
		}
	}
}

// TestKernelScalarEquivalence: the scalar and kernel variants produce
// the same total on both showcase topologies — the offload changes
// where and how fast, never what.
func TestKernelScalarEquivalence(t *testing.T) {
	const n = 600
	topos := map[string]cell.Topology{
		"ppe1-spe4-vpu2": kernelTopology(),
		"ppe1-spe6":      cell.PS3Topology(6),
	}
	want := kernelExpected(n)
	for name, topo := range topos {
		_, sj := runKernelJob(t, topo, "KScalar", n)
		_, kj := runKernelJob(t, topo, "KMain", n)
		s, k := int32(uint32(sj.Root().Result)), int32(uint32(kj.Root().Result))
		if s != want || k != want {
			t.Errorf("%s: scalar=%d kernel=%d, want both %d", name, s, k, want)
		}
		if sj.Stats.KernelLaunches != 0 {
			t.Errorf("%s: scalar variant launched %d kernels", name, sj.Stats.KernelLaunches)
		}
	}
}

// TestKernelDeterministicReplay: two fresh machines running the same
// launch agree cycle for cycle and byte for byte.
func TestKernelDeterministicReplay(t *testing.T) {
	const n = 400
	v1, j1 := runKernelJob(t, kernelTopology(), "KMain", n)
	v2, j2 := runKernelJob(t, kernelTopology(), "KMain", n)
	if j1.Cycles() != j2.Cycles() {
		t.Errorf("replay drifted: %d vs %d cycles", j1.Cycles(), j2.Cycles())
	}
	if j1.Stats != j2.Stats {
		t.Errorf("replay stats drifted:\n %+v\n %+v", j1.Stats, j2.Stats)
	}
	if c1, c2 := v1.Machine.MaxClock(), v2.Machine.MaxClock(); c1 != c2 {
		t.Errorf("machine clocks drifted: %d vs %d", c1, c2)
	}
}

// TestKernelEmptyRangeAndNullBody: an empty range is a no-op (the
// caller runs straight through); a null body traps the thread.
func TestKernelEmptyRangeAndNullBody(t *testing.T) {
	p := newProg()
	parallel := p.Lookup("hera/Parallel")
	kern := p.Lookup("hera/Kernel")

	empty := p.NewClass("EmptyLaunch", nil)
	{
		a := empty.NewMethod("main", classfile.FlagStatic, classfile.Int).Asm()
		a.ConstI(5)
		a.ConstI(5)
		a.New(kern)
		a.InvokeStatic(parallel.MethodByName("forRange"))
		a.ConstI(42)
		a.Ret()
		a.MustBuild()
	}
	nullBody := p.NewClass("NullLaunch", nil)
	{
		a := nullBody.NewMethod("main", classfile.FlagStatic, classfile.Int).Asm()
		a.ConstI(0)
		a.ConstI(5)
		a.Null()
		a.InvokeStatic(parallel.MethodByName("forRange"))
		a.ConstI(0)
		a.Ret()
		a.MustBuild()
	}

	cfg := testConfig()
	cfg.Machine.Topology = kernelTopology()
	v, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := v.Submit(JobSpec{Name: "empty", Class: "EmptyLaunch", Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatalf("empty range: %v", err)
	}
	if got := int32(uint32(j.Root().Result)); got != 42 {
		t.Errorf("empty-range result = %d, want 42", got)
	}
	if j.Stats.KernelLaunches != 0 || j.Stats.KernelWorkers != 0 {
		t.Errorf("empty range spawned workers: %+v", j.Stats)
	}

	nj, _, err := v.Submit(JobSpec{Name: "null", Class: "NullLaunch", Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nj.Wait(); err == nil {
		t.Error("null body did not trap")
	} else if te, ok := err.(*TrapError); !ok || te.Kind != "NullPointerException" {
		t.Errorf("null body trapped with %v, want NullPointerException", err)
	}
}

// TestFreezeJobRefusesInFlightKernel: a job holding an incomplete SPMD
// barrier reports ErrNotFreezable — it neither wedges nor captures a
// torn barrier — and still runs to the right answer afterwards.
func TestFreezeJobRefusesInFlightKernel(t *testing.T) {
	const n = 4000
	cfg := testConfig()
	cfg.Machine.Topology = kernelTopology()
	v, err := New(cfg, buildKernelProg(n))
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := v.Submit(JobSpec{Name: "kmain", Class: "KMain", Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	// Drive until the launch is in flight (the caller parks at the
	// barrier within the first quanta; workers then run for a while).
	var tries int
	for j.kernels == 0 {
		if tries++; tries > 10000 {
			t.Fatal("launch never went in flight")
		}
		if err := v.RunUntil(v.Machine.MaxClock() + 1); err != nil {
			t.Fatal(err)
		}
		if j.done {
			t.Fatal("job completed before the freeze probe")
		}
	}
	if _, err := v.Freeze(context.Background(), j); !errors.Is(err, ErrNotFreezable) {
		t.Fatalf("freeze mid-kernel: err = %v, want ErrNotFreezable", err)
	}
	if j.Frozen() {
		t.Fatal("refused freeze left the job marked frozen")
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := int32(uint32(j.Root().Result)); got != kernelExpected(n) {
		t.Errorf("post-refusal total = %d, want %d", got, kernelExpected(n))
	}
}

// TestKernelSpeedup: the pinned SPMD fan-out must beat the sequential
// scalar run of the same body on simulated cycles — the subsystem's
// reason to exist, pinned here so perf regressions fail loudly.
func TestKernelSpeedup(t *testing.T) {
	const n = 2000
	_, sj := runKernelJob(t, kernelTopology(), "KScalar", n)
	_, kj := runKernelJob(t, kernelTopology(), "KMain", n)
	s, k := sj.Cycles(), kj.Cycles()
	if k == 0 || s == 0 {
		t.Fatal("jobs did not complete")
	}
	speedup := float64(s) / float64(k)
	if speedup < 1.2 {
		t.Errorf("kernel speedup %.2fx (scalar %d vs kernel %d cycles), want >= 1.2x",
			speedup, s, k)
	}
	t.Log(fmt.Sprintf("kernel offload speedup: %.2fx (scalar %d, kernel %d cycles)", speedup, s, k))
}
