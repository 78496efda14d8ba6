package vm

import (
	"fmt"
	"strings"

	"herajvm/internal/isa"
)

// Report renders a per-core machine report: cycle breakdown by operation
// class, software-cache behaviour, DMA traffic, JIT activity, GC pauses
// and thread migrations.
func (vm *VM) Report() string {
	var b strings.Builder
	m := vm.Machine
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
		c := vm.Compiler(k)
		if c == nil {
			continue
		}
		jitParts = append(jitParts, fmt.Sprintf("%s %d methods/%s", k, c.Compiles, fmtBytes(c.CodeBytes)))
	}
	fmt.Fprintf(&b, "jit: %s\n", strings.Join(jitParts, ", "))
	fmt.Fprintf(&b, "gc: %d collections, %d cycles, %d live objects, %s live\n",
		vm.GCCount, vm.GCCycles, vm.Heap.LiveObjects(), fmtBytes(uint64(vm.Heap.LiveBytes())))

	if len(vm.jobs) > 0 {
		completed := 0
		for _, j := range vm.jobs {
			if j.Done() {
				completed++
			}
		}
		fmt.Fprintf(&b, "jobs: %d submitted, %d completed\n", len(vm.jobs), completed)
		for _, j := range vm.jobs {
			fmt.Fprintf(&b, "%s\n", j.describe())
		}
	}

	hot := vm.ledger.hottest(5)
	if len(hot) > 0 {
		fmt.Fprintf(&b, "hottest methods:\n")
		for _, id := range hot {
			ctr := vm.ledger[id]
			fmt.Fprintf(&b, "  %-40s %12d cycles, fp=%.2f mem=%.2f, %d invokes\n",
				vm.Prog.MethodByID(id).Sig(), ctr.Busy(), ctr.FPShare(), ctr.MemShare(), ctr.Invokes)
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

// describe renders one job line for the machine report.
func (j *Job) describe() string {
	switch {
	case j.Verdict == VerdictShed:
		return fmt.Sprintf("  job %-2d %-28s admitted=%-10d shed", j.ID, j.Name, j.AdmittedAt)
	case !j.Done():
		return fmt.Sprintf("  job %-2d %-28s admitted=%-10d running", j.ID, j.Name, j.AdmittedAt)
	}
	line := fmt.Sprintf("  job %-2d %-28s admitted=%-10d cycles=%-10d mig=%d steals=%d compiles=%d",
		j.ID, j.Name, j.AdmittedAt, j.Cycles(),
		j.Stats.Migrations, j.Stats.Steals, j.Stats.Compiles)
	if j.Stats.GCPauses > 0 {
		line += fmt.Sprintf(" gc=%d/%dcyc", j.Stats.GCPauses, j.Stats.GCCycles)
	}
	if j.Deadline != 0 {
		line += fmt.Sprintf(" deadline=%d met=%v", j.Deadline, j.DeadlineMet)
	}
	return line
}
