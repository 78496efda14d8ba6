package experiments

import (
	"fmt"
	"strings"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
	"herajvm/internal/workloads"
)

// KernelsSweep is the data-parallel offload ablation: every showcase
// kernel workload (matmul, nbody, kmeans) run scalar and kernel on
// each topology, with the checksums differentially checked against the
// pure-Go reference. The speedup column is simulated cycles — the
// claim under test is that fanning the iteration space out over the
// pool the planner predicts finishes first beats the sequential run of
// the identical body, with the staging DMA billed, not free. Beside
// each topology the sweep runs every single pool on its own: the
// sub-machine holding only that pool's kind beside the PPEs (ppe:1,spe:4
// is the SPE reference of ppe:1,spe:4,vpu:2, and ppe:1 the PPE's). A
// topology's chosen plan is held to the best of its references.
type KernelsSweep struct {
	Rows []KernelsRow `json:"rows"`
}

// KernelsRow is one (workload, machine) cell of the sweep.
type KernelsRow struct {
	Workload string `json:"workload"`
	Topology string `json:"topology"`
	// Shape is true for a topology the sweep was asked for, false for a
	// single-pool reference machine run only to judge one.
	Shape bool `json:"shape"`
	// Pool is the core kind the launch ran on, as its job reports it.
	Pool string `json:"pool"`
	// ScalarCycles/KernelCycles are the two variants' simulated
	// completion times; Speedup is their ratio.
	ScalarCycles uint64  `json:"scalar_cycles"`
	KernelCycles uint64  `json:"kernel_cycles"`
	Speedup      float64 `json:"speedup"`
	// VsBest is a shape's KernelCycles over the least of its single-pool
	// references' (0 on a reference-only row).
	VsBest float64 `json:"vs_best"`
	// Workers and DMABytes are the kernel job's fan-out width and the
	// staging DMA billed against it.
	Workers  uint64 `json:"workers"`
	DMABytes uint64 `json:"dma_bytes"`
	// Checksum is the (shared) checksum; Valid demands scalar, kernel
	// and the Go reference all agree.
	Checksum int32 `json:"checksum"`
	Valid    bool  `json:"valid"`
}

// planSlack is how far a shape's chosen plan may trail its best
// single-pool reference: the planner prices from static code, so a
// near-tie may go either way.
const planSlack = 1.02

// poolReferences returns the single-pool sub-machines of topo, one per
// kind it has, in kind order: the PPE groups alone, and the PPE groups
// beside each other kind's groups.
func poolReferences(topo cell.Topology) []cell.Topology {
	var out []cell.Topology
	for _, k := range isa.CoreKinds() {
		var sub cell.Topology
		has := false
		for _, g := range topo {
			if g.Kind == isa.PPE || g.Kind == k {
				sub = append(sub, g)
				has = has || g.Kind == k
			}
		}
		if has {
			out = append(out, sub)
		}
	}
	return out
}

// RunKernels executes the kernel offload ablation: workloads x
// machines, scalar vs kernel — each workload's two entry classes are
// two benches over the one program, so the job-level kernel accounting
// (workers, staging DMA, pool) is observable per variant.
// Options.Topologies overrides the shapes; Options.ScaleOverride the
// per-workload scales.
func RunKernels(opt Options) (*KernelsSweep, error) {
	var benches []bench
	for _, k := range workloads.Kernels() {
		scale := opt.scale(k.Name, k.DefaultScale)
		want := k.Reference(0, scale)
		for _, entry := range []string{k.ScalarClass, k.MainClass} {
			benches = append(benches, bench{name: k.Name + "/" + entry, entry: entry,
				build: func(threads int) (*classfile.Program, error) { return k.Build(threads, scale) },
				want:  func(int) int32 { return want }})
		}
	}
	// The default shapes: the paper's PS3 baseline, the three-kind serve
	// machine, the same with two SPEs, and the VPUs beside the PPE alone.
	vpus := cell.CoreGroup{Kind: isa.VPU, Count: 2}
	shapes := opt.topologies(cell.PS3Topology(6), DefaultServeTopology(),
		append(cell.PS3Topology(2), vpus), cell.Topology{{Kind: isa.PPE, Count: 1}, vpus})
	var arms []arm
	shape, armed := map[string]bool{}, map[string]bool{}
	for _, topo := range shapes {
		shape[topo.String()], armed[topo.String()] = true, true
		arms = append(arms, on("default workers", topo, 0))
	}
	for _, topo := range shapes {
		for _, ref := range poolReferences(topo) {
			if !armed[ref.String()] {
				armed[ref.String()] = true
				arms = append(arms, on("single pool", ref, 0))
			}
		}
	}
	runs, err := grid(opt, "kernels", benches, arms)
	if err != nil {
		return nil, err
	}
	out := &KernelsSweep{}
	for i, k := range workloads.Kernels() {
		rows := make([]KernelsRow, len(arms))
		cycles := map[string]uint64{}
		for t := range arms {
			sj, kj := runs[2*i][t], runs[2*i+1][t]
			rows[t] = KernelsRow{
				Workload:     k.Name,
				Topology:     kj.Topology,
				Shape:        shape[kj.Topology],
				Pool:         strings.ToLower(kj.KernelPool.String()),
				ScalarCycles: sj.Cycles,
				KernelCycles: kj.Cycles,
				Workers:      kj.Job.KernelWorkers,
				DMABytes:     kj.Job.KernelDMABytes,
				Checksum:     kj.Checksum,
				Valid:        sj.Valid && kj.Valid && kj.Job.KernelLaunches == 1,
			}
			if kj.Cycles > 0 {
				rows[t].Speedup = float64(sj.Cycles) / float64(kj.Cycles)
			}
			cycles[kj.Topology] = kj.Cycles
		}
		for t, a := range arms {
			if !rows[t].Shape {
				continue
			}
			var best uint64
			for _, ref := range poolReferences(a.cfg.Machine.Topology) {
				if c := cycles[ref.String()]; best == 0 || c < best {
					best = c
				}
			}
			if best > 0 {
				rows[t].VsBest = float64(rows[t].KernelCycles) / float64(best)
			}
		}
		out.Rows = append(out.Rows, rows...)
	}
	return out, nil
}

// Table renders the ablation as text. Every column is simulated state,
// so the output replays byte for byte.
func (s *KernelsSweep) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Data-parallel kernel offload: scalar vs Parallel.forRange (simulated cycles)\n")
	fmt.Fprintf(&b, "%-10s %-18s %-5s %14s %14s %8s %8s %8s %10s %6s\n",
		"kernel", "topology", "pool", "scalar", "kernel", "speedup", "vs best", "workers", "dma B", "valid")
	for _, r := range s.Rows {
		vsBest := "ref"
		if r.Shape {
			vsBest = fmt.Sprintf("%.3fx", r.VsBest)
		}
		fmt.Fprintf(&b, "%-10s %-18s %-5s %14d %14d %7.2fx %8s %8d %10d %6v\n",
			r.Workload, r.Topology, r.Pool, r.ScalarCycles, r.KernelCycles,
			r.Speedup, vsBest, r.Workers, r.DMABytes, r.Valid)
	}
	return b.String()
}

// Check gates the sweep: every row must be differentially valid, every
// kernel run on a local-store pool must have billed staging DMA, every
// shape's chosen plan must take at most planSlack times the cycles of
// its best single-pool reference, and matmul's speedup on every shape
// must clear Options.MinSpeedup (the CI floor).
func (s *KernelsSweep) Check(opt Options) error {
	var problems []string
	gated := opt.MinSpeedup == 0
	for _, r := range s.Rows {
		if !r.Valid {
			problems = append(problems,
				fmt.Sprintf("%s on %s: checksum mismatch between scalar, kernel and reference",
					r.Workload, r.Topology))
		}
		if kind, err := isa.ParseCoreKind(r.Pool); err == nil && kind.UsesLocalStore() && r.DMABytes == 0 {
			problems = append(problems,
				fmt.Sprintf("%s on %s: kernel billed no staging DMA", r.Workload, r.Topology))
		}
		if !r.Shape {
			continue
		}
		if r.VsBest > planSlack {
			problems = append(problems, fmt.Sprintf(
				"%s on %s: the %s plan takes %.3fx the cycles of the best single pool (at most %.2fx)",
				r.Workload, r.Topology, r.Pool, r.VsBest, planSlack))
		}
		if r.Workload == "matmul" {
			gated = true
			if r.Speedup < opt.MinSpeedup {
				problems = append(problems, fmt.Sprintf(
					"matmul on %s: speedup %.2fx below the %.2fx floor", r.Topology, r.Speedup, opt.MinSpeedup))
			}
		}
	}
	if !gated {
		problems = append(problems, "no matmul row ran — the floor never applied")
	}
	return gateError("kernels", problems)
}
