// Package core composes the Hera-JVM system — the simulated Cell
// machine, the per-core JIT compilers, the SPE software caches, the
// runtime (threads, scheduler, migration, GC) and the profiler — behind
// one orchestration type, and renders machine-level reports. This is the
// paper's contribution as a single artefact: a runtime system that hides
// processor heterogeneity behind a homogeneous virtual machine.
package core

import (
	"fmt"
	"strings"

	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
	"herajvm/internal/vm"
)

// System is a booted Hera-JVM on a simulated Cell machine. It is a
// long-lived session: the VM stays booted between runs, and many jobs —
// each a named entry method with its own per-job accounting — can be
// submitted to it (Submit/Job.Wait/Drain in session.go).
type System struct {
	VM *vm.VM

	jobs []*Job
}

// NewSystem boots a system for a program (resolving it if needed).
func NewSystem(cfg vm.Config, prog *classfile.Program) (*System, error) {
	v, err := vm.New(cfg, prog)
	if err != nil {
		return nil, err
	}
	return &System{VM: v}, nil
}

// Result summarises one completed job.
type Result struct {
	// Cycles is the job's admission-to-completion time: the cycle its
	// last thread retired minus the cycle it was admitted. (Before the
	// session API this was the global machine-clock delta, which only
	// made sense for one run at a time.)
	Cycles cell.Clock
	// Millis is Cycles at the machine's configured clock rate
	// (MachineConfig.ClockHz; the Cell's 3.2 GHz by default).
	Millis float64
	// Value is the entry method's return value (low bits for int).
	Value uint64
	// HasValue reports whether the entry method returned a value.
	HasValue bool
	// Output is the System.out text the job's own threads printed.
	Output string

	// AdmittedAt and CompletedAt bound the job in simulated time.
	AdmittedAt  cell.Clock
	CompletedAt cell.Clock
	// Verdict is the admission pipeline's decision for the job; Shed is
	// true when it was refused at admission (Verdict == Shed), in which
	// case the job never ran: Cycles, Value and Output are zero and
	// DeadlineMet is false.
	Verdict Verdict
	Shed    bool
	// Deadline is the job's absolute completion deadline (0 = none) and
	// DeadlineMet whether the job completed by it (true when it had
	// none).
	Deadline    cell.Clock
	DeadlineMet bool
	// JobStats is the job's own accounting, as the VM kept it: the
	// scheduling events its threads experienced (Migrations, Steals,
	// Compiles), the collections its allocations forced and their pause
	// cycles (GCPauses, GCCycles — billed to the job, so serving
	// percentiles cannot hide GC), and its kernel launches
	// (KernelLaunches, KernelWorkers, KernelDMABytes). The fields read as
	// the Result's own: res.Migrations.
	vm.JobStats
}

// Report renders a per-core machine report: cycle breakdown by operation
// class, software-cache behaviour, DMA traffic, JIT activity, GC pauses
// and thread migrations.
func (s *System) Report() string {
	var b strings.Builder
	m := s.VM.Machine
	fmt.Fprintf(&b, "machine: %s, clock %d cycles\n", m.Describe(), m.MaxClock())

	for _, c := range m.Cores() {
		st := &c.Stats
		fmt.Fprintf(&b, "%-5s busy=%-12d idle=%-12d instrs=%-12d", c, st.Busy(), st.Idle, st.Instrs)
		if c.Kind.UsesLocalStore() {
			fmt.Fprintf(&b, " dcache=%.3f ccache=%.3f dma=%s",
				st.DataHitRate(), st.CodeHitRate(), fmtBytes(st.DMABytes))
		} else {
			fmt.Fprintf(&b, " l1=%.3f l2=%.3f", c.Mem.L1.HitRate(), c.Mem.L2.HitRate())
			if c.BP != nil {
				fmt.Fprintf(&b, " bp=%.3f", c.BP.Accuracy())
			}
		}
		fmt.Fprintf(&b, " mig in/out=%d/%d", st.MigrationsIn, st.MigrationsOut)
		if st.StealsIn+st.StealsOut > 0 {
			fmt.Fprintf(&b, " steals in/out=%d/%d", st.StealsIn, st.StealsOut)
		}
		if st.FastForwardedBlocks > 0 {
			fmt.Fprintf(&b, " ff blocks/instrs=%d/%d",
				st.FastForwardedBlocks, st.FastForwardedInstrs)
		}
		fmt.Fprintf(&b, "\n")
	}

	fmt.Fprintf(&b, "classes: ")
	var total [isa.NumClasses]uint64
	var busy uint64
	for _, c := range m.Cores() {
		for i, cy := range c.Stats.Cycles {
			total[i] += cy
			busy += cy
		}
	}
	if busy > 0 {
		for i, cy := range total {
			fmt.Fprintf(&b, "%s %.1f%%  ", isa.OpClass(i), 100*float64(cy)/float64(busy))
		}
	}
	fmt.Fprintf(&b, "\n")

	fmt.Fprintf(&b, "eib: %d transfers, %s, %d wait cycles\n",
		m.EIB.Transfers, fmtBytes(m.EIB.Bytes), m.EIB.WaitCycles)
	var jitParts []string
	for _, k := range isa.CoreKinds() {
		c := s.VM.Compiler(k)
		if c == nil {
			continue
		}
		jitParts = append(jitParts, fmt.Sprintf("%s %d methods/%s", k, c.Compiles, fmtBytes(c.CodeBytes)))
	}
	fmt.Fprintf(&b, "jit: %s\n", strings.Join(jitParts, ", "))
	fmt.Fprintf(&b, "gc: %d collections, %d cycles, %d live objects, %s live\n",
		s.VM.GCCount, s.VM.GCCycles, s.VM.Heap.LiveObjects(), fmtBytes(uint64(s.VM.Heap.LiveBytes())))

	if len(s.jobs) > 0 {
		completed := 0
		for _, j := range s.jobs {
			if j.Done() {
				completed++
			}
		}
		fmt.Fprintf(&b, "jobs: %d submitted, %d completed\n", len(s.jobs), completed)
		for _, j := range s.jobs {
			fmt.Fprintf(&b, "%s\n", j.describe())
		}
	}

	hot := s.VM.Monitor.Hottest(5)
	if len(hot) > 0 {
		fmt.Fprintf(&b, "hottest methods:\n")
		for _, id := range hot {
			mth := s.VM.Prog.MethodByID(id)
			ctr := s.VM.Monitor.ByMethod[id]
			var mBusy uint64
			for _, cy := range ctr.Cycles {
				mBusy += cy
			}
			fmt.Fprintf(&b, "  %-40s %12d cycles, fp=%.2f mem=%.2f, %d invokes\n",
				mth.Sig(), mBusy, ctr.FPShare(), ctr.MemShare(), ctr.Invokes)
		}
	}
	return b.String()
}

func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
