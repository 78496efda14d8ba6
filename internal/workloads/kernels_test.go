package workloads

import (
	"testing"

	"herajvm/internal/cell"
	"herajvm/internal/isa"
	"herajvm/internal/vm"
)

// kernelTestTopology is the VPU-bearing showcase machine, on which the
// launch planner picks the four SPEs over the two VPUs.
func kernelTestTopology() cell.Topology {
	return cell.Topology{
		{Kind: isa.PPE, Count: 1}, {Kind: isa.SPE, Count: 4}, {Kind: isa.VPU, Count: 2},
	}
}

func kernelConfig(topo cell.Topology) vm.Config {
	cfg := vm.DefaultConfig()
	cfg.Machine.MainMemory = 32 << 20
	cfg.Machine.Topology = topo
	cfg.HeapBytes = 16 << 20
	cfg.CodeBytes = 2 << 20
	return cfg
}

// runKernelVariant builds one kernel workload and runs the chosen entry
// as a job, returning the checksum and the job for stats inspection.
func runKernelVariant(t *testing.T, k Spec, kernel bool, scale int,
	topo cell.Topology) (int32, *vm.VM, *vm.Job) {
	t.Helper()
	p, err := k.Build(1, scale)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := vm.New(kernelConfig(topo), p)
	if err != nil {
		t.Fatal(err)
	}
	entry := k.ScalarClass
	if kernel {
		entry = k.MainClass
	}
	j, _, err := machine.Submit(vm.JobSpec{Name: entry, Class: entry, Method: "main"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatalf("%s/%s: %v", k.Name, entry, err)
	}
	return int32(uint32(j.Root().Result)), machine, j
}

// TestKernelWorkloadsDifferential is the subsystem's central contract:
// for every showcase workload, on both the VPU-bearing machine and the
// VPU-less PS3 baseline, the scalar run, the kernel run and the pure-Go
// reference agree byte for byte — the offload changes where and how
// fast, never what.
func TestKernelWorkloadsDifferential(t *testing.T) {
	topos := map[string]cell.Topology{
		"ppe1-spe4-vpu2": kernelTestTopology(),
		"ppe1-spe6":      cell.PS3Topology(6),
	}
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			const scale = 1
			want := k.Reference(1, scale)
			for name, topo := range topos {
				scalar, _, sj := runKernelVariant(t, k, false, scale, topo)
				kernel, _, kj := runKernelVariant(t, k, true, scale, topo)
				if scalar != want || kernel != want {
					t.Errorf("%s: scalar=%d kernel=%d, want both %d", name, scalar, kernel, want)
				}
				if sj.Stats.KernelLaunches != 0 {
					t.Errorf("%s: scalar variant launched %d kernels", name, sj.Stats.KernelLaunches)
				}
				if kj.Stats.KernelLaunches != 1 || kj.Stats.KernelWorkers == 0 {
					t.Errorf("%s: kernel variant stats %+v, want one launch with workers",
						name, kj.Stats)
				}
			}
		})
	}
}

// TestKernelWorkloadsStageDMA: on the local-store pool the launch must
// bill real staging DMA against the job and the chosen cores.
func TestKernelWorkloadsStageDMA(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			_, machine, j := runKernelVariant(t, k, true, 1, kernelTestTopology())
			if j.Stats.KernelDMABytes == 0 {
				t.Error("no staging DMA billed to the job")
			}
			var staged uint64
			for _, c := range machine.Machine.CoresOf(isa.VPU) {
				staged += c.Stats.DataStaged
			}
			for _, c := range machine.Machine.CoresOf(isa.SPE) {
				staged += c.Stats.DataStaged
			}
			if staged == 0 {
				t.Error("no core staged any tiles")
			}
		})
	}
}

// TestKernelWorkloadsDeterministicReplay: two fresh machines running
// the same kernel variant agree on cycles, stats and checksum.
func TestKernelWorkloadsDeterministicReplay(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			r1, _, j1 := runKernelVariant(t, k, true, 1, kernelTestTopology())
			r2, _, j2 := runKernelVariant(t, k, true, 1, kernelTestTopology())
			if r1 != r2 {
				t.Errorf("replay checksum drifted: %d vs %d", r1, r2)
			}
			if j1.Cycles() != j2.Cycles() {
				t.Errorf("replay cycles drifted: %d vs %d", j1.Cycles(), j2.Cycles())
			}
			if j1.Stats != j2.Stats {
				t.Errorf("replay stats drifted:\n %+v\n %+v", j1.Stats, j2.Stats)
			}
		})
	}
}

// scalarOf is a kernel workload's copy whose entry point is its
// sequential twin.
func scalarOf(k Spec) Spec {
	k.MainClass = k.ScalarClass
	return k
}

// TestKernelWorkloadsAsSpecMix: kernel workloads, in either variant,
// ride the job-mix machinery beside the paper workloads, isolated per
// prefix.
func TestKernelWorkloadsAsSpecMix(t *testing.T) {
	mm := Matmul()
	entries := []MixEntry{
		{Spec: mm, Threads: 1, Scale: 1},
		{Spec: scalarOf(mm), Threads: 1, Scale: 1},
	}
	p, err := BuildMix(entries)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := vm.New(kernelConfig(kernelTestTopology()), p)
	if err != nil {
		t.Fatal(err)
	}
	want := mm.Reference(1, 1)
	for i, e := range entries {
		j, _, err := machine.Submit(vm.JobSpec{
			Name: e.MainClassOf(i), Class: e.MainClassOf(i), Method: "main"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		if got := int32(uint32(j.Root().Result)); got != want {
			t.Errorf("mix entry %d: checksum %d, want %d", i, got, want)
		}
	}
}
