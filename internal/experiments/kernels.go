package experiments

import (
	"fmt"
	"strings"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/kernel"
	"herajvm/internal/workloads"
)

// KernelsSweep is the data-parallel offload ablation: every showcase
// kernel workload (matmul, nbody, kmeans) run scalar and kernel on
// each topology, with the checksums differentially checked against the
// pure-Go reference. The speedup column is simulated cycles — the
// claim under test is that fanning the iteration space out over the
// planner's chosen pool (the VPUs when present, SPEs otherwise) beats
// the sequential run of the identical body, with the staging DMA
// billed, not free.
type KernelsSweep struct {
	Rows []KernelsRow `json:"rows"`
}

// KernelsRow is one (workload, topology) cell of the sweep.
type KernelsRow struct {
	Workload string `json:"workload"`
	Topology string `json:"topology"`
	// Pool is the core kind the launch planner picks on this topology.
	Pool string `json:"pool"`
	// ScalarCycles/KernelCycles are the two variants' simulated
	// completion times; Speedup is their ratio.
	ScalarCycles uint64  `json:"scalar_cycles"`
	KernelCycles uint64  `json:"kernel_cycles"`
	Speedup      float64 `json:"speedup"`
	// Workers and DMABytes are the kernel job's fan-out width and the
	// staging DMA billed against it.
	Workers  uint64 `json:"workers"`
	DMABytes uint64 `json:"dma_bytes"`
	// Checksum is the (shared) checksum; Valid demands scalar, kernel
	// and the Go reference all agree.
	Checksum int32 `json:"checksum"`
	Valid    bool  `json:"valid"`
}

// poolKindFor replays the launch planner's pool choice for a topology
// (the same ChoosePool the VM calls), so the table can name the pool
// without instrumenting the launch path.
func poolKindFor(topo cell.Topology) string {
	pools := make([]kernel.Pool, 0, len(topo))
	for _, e := range topo {
		pools = append(pools, kernel.Pool{Kind: e.Kind, Cores: e.Count})
	}
	if p, ok := kernel.ChoosePool(pools); ok {
		return strings.ToLower(p.Kind.String())
	}
	return "none"
}

// RunKernels executes the kernel offload ablation: workloads x
// topologies, scalar vs kernel — each workload's two entry classes are
// two benches over the one program, so the job-level kernel accounting
// (workers, staging DMA) is observable per variant. Options.Topologies
// overrides the machine shapes; Options.ScaleOverride the per-workload
// scales.
func RunKernels(opt Options) (*KernelsSweep, error) {
	var benches []bench
	for _, k := range workloads.Kernels() {
		scale := opt.scale(k.Name, k.DefaultScale)
		want := k.Reference(scale)
		for _, entry := range []string{k.ScalarClass, k.KernelClass} {
			benches = append(benches, bench{name: k.Name + "/" + entry, entry: entry,
				build: func(int) (*classfile.Program, error) { return k.Build(scale) },
				want:  func(int) int32 { return want }})
		}
	}
	// The default shapes: the paper's PS3 baseline (the kernel falls
	// back to the SPE pool) and the VPU-bearing three-kind machine the
	// planner routes onto the vector cores.
	var arms []arm
	for _, topo := range opt.topologies(cell.PS3Topology(6), DefaultServeTopology()) {
		arms = append(arms, arm{label: "default workers", topo: topo})
	}
	runs, err := grid(opt, "kernels", benches, arms)
	if err != nil {
		return nil, err
	}
	out := &KernelsSweep{}
	for i, k := range workloads.Kernels() {
		for t, a := range arms {
			sj, kj := runs[2*i][t], runs[2*i+1][t]
			row := KernelsRow{
				Workload:     k.Name,
				Topology:     kj.Topology,
				Pool:         poolKindFor(a.topo),
				ScalarCycles: sj.Cycles,
				KernelCycles: kj.Cycles,
				Workers:      kj.Job.KernelWorkers,
				DMABytes:     kj.Job.KernelDMABytes,
				Checksum:     kj.Checksum,
				Valid:        sj.Valid && kj.Valid && kj.Job.KernelLaunches == 1,
			}
			if row.KernelCycles > 0 {
				row.Speedup = float64(row.ScalarCycles) / float64(row.KernelCycles)
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// Table renders the ablation as text. Every column is simulated state,
// so the output replays byte for byte.
func (s *KernelsSweep) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Data-parallel kernel offload: scalar vs Parallel.forRange (simulated cycles)\n")
	fmt.Fprintf(&b, "%-10s %-18s %-5s %14s %14s %8s %8s %10s %6s\n",
		"kernel", "topology", "pool", "scalar", "kernel", "speedup", "workers", "dma B", "valid")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%-10s %-18s %-5s %14d %14d %7.2fx %8d %10d %6v\n",
			r.Workload, r.Topology, r.Pool, r.ScalarCycles, r.KernelCycles,
			r.Speedup, r.Workers, r.DMABytes, r.Valid)
	}
	return b.String()
}

// Check gates the sweep: every row must be differentially valid, every
// kernel run must have billed staging DMA on a local-store pool, and
// matmul's speedup on each VPU-bearing topology must clear
// Options.MinSpeedup (the CI floor; the acceptance claim is >= 2x on
// ppe:1,spe:4,vpu:2).
func (s *KernelsSweep) Check(opt Options) error {
	var problems []string
	gated := opt.MinSpeedup == 0
	for _, r := range s.Rows {
		if !r.Valid {
			problems = append(problems,
				fmt.Sprintf("%s on %s: checksum mismatch between scalar, kernel and reference",
					r.Workload, r.Topology))
		}
		if r.DMABytes == 0 {
			problems = append(problems,
				fmt.Sprintf("%s on %s: kernel billed no staging DMA", r.Workload, r.Topology))
		}
		if r.Workload == "matmul" && r.Pool == "vpu" {
			gated = true
			if r.Speedup < opt.MinSpeedup {
				problems = append(problems, fmt.Sprintf(
					"matmul on %s: speedup %.2fx below the %.2fx floor", r.Topology, r.Speedup, opt.MinSpeedup))
			}
		}
	}
	if !gated {
		problems = append(problems, "no matmul row ran on a VPU pool — the floor never applied")
	}
	return gateError("kernels", problems)
}
