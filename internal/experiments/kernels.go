package experiments

import (
	"fmt"
	"slices"
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
// claim under test is that splitting the iteration space over the
// pools the planner predicts finish it first beats the sequential run
// of the identical body, with the staging DMA billed, not free. The
// scalar twin is one thread on the PPE, so it runs once per kernel on
// each distinct set of PPE groups, alone (ppe:1 for every default
// shape), and every row's speedup is over its own. Beside each
// topology the sweep runs its sub-machines: the PPEs alone, and the
// PPEs beside each other kind (ppe:1,spe:4 is the SPE reference of
// ppe:1,spe:4,vpu:2, and ppe:1 the PPE's). Each job has its machine to
// itself, so a launch splits over every kind it has — a reference means
// "that kind beside the PPE", not that kind alone. A topology's plan is
// held to the best of its references, and a split over three kinds must
// beat them all.
type KernelsSweep struct {
	Rows []KernelsRow `json:"rows"`
}

// KernelsRow is one (workload, machine) cell of the sweep.
type KernelsRow struct {
	Workload string `json:"workload"`
	Topology string `json:"topology"`
	// Shape is true for a topology the sweep was asked for, false for a
	// sub-machine run only to judge one.
	Shape bool `json:"shape"`
	// Pool is the set of core kinds the launch ran on, as its job
	// reports it ("ppe+spe").
	Pool string `json:"pool"`
	// ScalarCycles/KernelCycles are the two variants' simulated
	// completion times (the scalar run on the topology's PPE groups
	// alone); Speedup is their ratio.
	ScalarCycles uint64  `json:"scalar_cycles"`
	KernelCycles uint64  `json:"kernel_cycles"`
	Speedup      float64 `json:"speedup"`
	// VsBest is a shape's KernelCycles over the least of its
	// sub-machines' (0 on a reference-only row).
	VsBest float64 `json:"vs_best"`
	// Workers and DMABytes are the kernel job's fan-out width and the
	// staging DMA billed against it; Staged is the set of kinds whose
	// cores staged tiles ("spe+vpu").
	Workers  uint64 `json:"workers"`
	DMABytes uint64 `json:"dma_bytes"`
	Staged   string `json:"staged"`
	// Checksum is the (shared) checksum; Valid demands scalar, kernel
	// and the Go reference all agree.
	Checksum int32 `json:"checksum"`
	Valid    bool  `json:"valid"`
}

// planSlack is how far a shape's plan may trail its best sub-machine:
// the planner prices from static code, so a near-tie may go either way.
const planSlack = 1.02

// splitGain is the most a split over three kinds may take of its best
// sub-machine's cycles where the figure claims the gain (splitClaimed).
const splitGain = 0.80

// minSpeedup is the matmul kernel-vs-scalar cycle ratio every shape's
// plan must reach where figureSized (the lowest default shape,
// ppe:1,vpu:2, reaches 2.68x).
const minSpeedup = 2.0

// figureSized reports whether a workload ran the way the figure makes
// its claims: on the figure's own shapes, at the kernel's default size.
func figureSized(workload string, opt Options) bool {
	return len(opt.Topologies) == 0 && opt.ScaleOverride[workload] == 0
}

// splitClaimed reports whether r is held to splitGain: matmul or nbody
// — kmeans' branchy body gains less on the VPUs — on one of the
// figure's own three-kind shapes, figureSized. Smaller or PPE-heavier
// runs split too, for less (a scale-1 matmul has too few rows to split
// evenly: 0.868x; ppe:2,spe:2,vpu:1 adds one VPU: 0.842x).
func splitClaimed(r KernelsRow, opt Options) bool {
	if r.Workload != "matmul" && r.Workload != "nbody" || !figureSized(r.Workload, opt) {
		return false
	}
	topo, err := cell.ParseTopology(r.Topology)
	return err == nil && len(poolReferences(topo)) == 3 // one reference per kind
}

// poolReferences returns the sub-machines of topo, one per kind it has,
// in kind order: the PPE groups alone, and the PPE groups beside each
// other kind's groups.
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
// (workers, staging DMA, pools) is observable per variant.
// Options.Topologies overrides the shapes; Options.ScaleOverride the
// per-workload scales.
func RunKernels(opt Options) (*KernelsSweep, error) {
	var scalars, kernels []bench
	for _, k := range workloads.Kernels() {
		scale := opt.scale(k.Name, k.DefaultScale)
		want := k.Reference(0, scale)
		b := func(entry string) bench {
			return bench{name: k.Name + "/" + entry, entry: entry,
				build: func(threads int) (*classfile.Program, error) { return k.Build(threads, scale) },
				want:  func(int) int32 { return want }}
		}
		scalars, kernels = append(scalars, b(k.ScalarClass)), append(kernels, b(k.MainClass))
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
				arms = append(arms, on("sub-machine", ref, 0))
			}
		}
	}
	// The scalar twin runs on each distinct PPE sub-machine: the first of
	// every topology's references, and itself an arm.
	var scalarArms []arm
	scalarArm := map[string]int{}
	for _, a := range arms {
		if topo := a.cfg.Machine.Topology; poolReferences(topo)[0].String() == topo.String() {
			scalarArm[topo.String()] = len(scalarArms)
			scalarArms = append(scalarArms, a)
		}
	}
	scalarRuns, err := grid(opt, "kernels", scalars, scalarArms)
	if err != nil {
		return nil, err
	}
	kernelRuns, err := grid(opt, "kernels", kernels, arms)
	if err != nil {
		return nil, err
	}
	out := &KernelsSweep{}
	for i, k := range workloads.Kernels() {
		rows := make([]KernelsRow, len(arms))
		cycles := map[string]uint64{}
		for t, a := range arms {
			sj := scalarRuns[i][scalarArm[poolReferences(a.cfg.Machine.Topology)[0].String()]]
			kj := kernelRuns[i][t]
			rows[t] = KernelsRow{
				Workload:     k.Name,
				Topology:     kj.Topology,
				Shape:        shape[kj.Topology],
				Pool:         strings.ToLower(kj.KernelPool.String()),
				ScalarCycles: sj.Cycles,
				KernelCycles: kj.Cycles,
				Workers:      kj.Job.KernelWorkers,
				DMABytes:     kj.Job.KernelDMABytes,
				Staged:       strings.ToLower(kj.Staged.String()),
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
	fmt.Fprintf(&b, "Data-parallel kernel offload: scalar vs Parallel.forRange (simulated cycles;\n")
	fmt.Fprintf(&b, "every launch splits over its machine's kinds; a ref row is a sub-machine, that kind beside the PPE)\n")
	fmt.Fprintf(&b, "%-10s %-18s %-11s %14s %14s %8s %8s %8s %10s %6s\n",
		"kernel", "topology", "pool", "scalar", "kernel", "speedup", "vs best", "workers", "dma B", "valid")
	for _, r := range s.Rows {
		vsBest := "ref"
		if r.Shape {
			vsBest = fmt.Sprintf("%.3fx", r.VsBest)
		}
		fmt.Fprintf(&b, "%-10s %-18s %-11s %14d %14d %7.2fx %8s %8d %10d %6v\n",
			r.Workload, r.Topology, r.Pool, r.ScalarCycles, r.KernelCycles,
			r.Speedup, vsBest, r.Workers, r.DMABytes, r.Valid)
	}
	return b.String()
}

// Check gates the sweep: every row must be differentially valid, every
// local-store pool a kernel ran on must have staged tiles, every
// shape's plan must take at most planSlack times the cycles of its best
// sub-machine — and at most splitGain times where splitClaimed — and,
// figureSized, matmul's speedup on every shape must reach minSpeedup.
func (s *KernelsSweep) Check(opt Options) error {
	var problems []string
	floored := false
	for _, r := range s.Rows {
		if !r.Valid {
			problems = append(problems,
				fmt.Sprintf("%s on %s: checksum mismatch between scalar, kernel and reference",
					r.Workload, r.Topology))
		}
		staged := strings.Split(r.Staged, "+")
		for _, name := range strings.Split(r.Pool, "+") {
			if kind, err := isa.ParseCoreKind(name); err == nil && kind.UsesLocalStore() && !slices.Contains(staged, name) {
				problems = append(problems,
					fmt.Sprintf("%s on %s: kernel billed no staging DMA on its %s pool", r.Workload, r.Topology, name))
			}
		}
		if !r.Shape {
			continue
		}
		limit := planSlack
		if splitClaimed(r, opt) {
			limit = splitGain
		}
		if r.VsBest > limit {
			problems = append(problems, fmt.Sprintf(
				"%s on %s: the %s plan takes %.3fx the cycles of the best sub-machine (at most %.2fx)",
				r.Workload, r.Topology, r.Pool, r.VsBest, limit))
		}
		if r.Workload == "matmul" && figureSized(r.Workload, opt) {
			floored = true
			if r.Speedup < minSpeedup {
				problems = append(problems, fmt.Sprintf(
					"matmul on %s: speedup %.2fx below the %.2fx floor", r.Topology, r.Speedup, minSpeedup))
			}
		}
	}
	if !floored && figureSized("matmul", opt) {
		problems = append(problems, "no matmul row ran — the floor never applied")
	}
	return gateError("kernels", problems)
}
