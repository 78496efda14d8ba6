// VPU: a third core kind added by data alone. The VPU is a GPU-like
// wide vector core that is one row of the kind table: nothing but a
// cost table (very cheap floating point, brutal branch and call costs)
// and capability flags (SPE-style local store, no runtime services).
// No scheduler, policy, cache or JIT code names it — yet the same
// unmodified floating-point program below migrates to VPU cores when
// the topology declares them, because the adaptive monitoring policy
// sends FP-dominated methods to the kind with the cheapest predicted
// floating point: the SPE on a classic PS3, the VPU when one is present.
//
//	go run ./examples/vpu
package main

import (
	"fmt"
	"log"

	hera "herajvm"
)

// buildProgram creates Main.main calling an unannotated polynomial
// kernel repeatedly; only runtime monitoring can discover that it is
// FP-bound and move it.
func buildProgram() *hera.Program {
	prog := hera.NewProgram()
	cls := prog.NewClass("Main", nil)

	horner := cls.NewMethod("horner", hera.Static, hera.Double, hera.Double)
	{
		a := horner.Asm()
		// Evaluate a fixed degree-3000 polynomial at x by Horner's rule.
		// locals: 0=x 1=acc 2=i
		loop, done := a.NewLabel(), a.NewLabel()
		a.ConstD(1.0)
		a.StoreD(1)
		a.ConstI(0)
		a.StoreI(2)
		a.Bind(loop)
		a.LoadI(2)
		a.ConstI(3000)
		a.IfICmpGE(done)
		a.LoadD(1)
		a.LoadD(0)
		a.MulD()
		a.ConstD(0.5)
		a.AddD()
		a.StoreD(1)
		a.Inc(2, 1)
		a.Goto(loop)
		a.Bind(done)
		a.LoadD(1)
		a.Ret()
		a.MustBuild()
	}

	m := cls.NewMethod("main", hera.Static, hera.Int)
	a := m.Asm()
	loop, done := a.NewLabel(), a.NewLabel()
	a.ConstD(0)
	a.StoreD(0)
	a.ConstI(0)
	a.StoreI(2)
	a.Bind(loop)
	a.LoadI(2)
	a.ConstI(40)
	a.IfICmpGE(done)
	a.LoadD(0)
	a.ConstD(0.999)
	a.InvokeStatic(horner)
	a.AddD()
	a.StoreD(0)
	a.Inc(2, 1)
	a.Goto(loop)
	a.Bind(done)
	a.LoadD(0)
	a.D2I()
	a.Ret()
	a.MustBuild()
	return prog
}

func run(topology string) {
	topo, err := hera.ParseTopology(topology)
	if err != nil {
		log.Fatal(err)
	}
	cfg := hera.DefaultConfig()
	cfg.Machine.Topology = topo
	cfg.Policy = hera.DefaultMonitoringPolicy()
	sys, err := hera.NewSystem(cfg, buildProgram())
	if err != nil {
		log.Fatal(err)
	}
	job, _, err := sys.Submit(hera.JobRequest{Class: "Main", Method: "main"})
	if err != nil {
		log.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-20s result=%d cycles=%-10d", topology, int32(uint32(res.Value)), res.Cycles)
	for _, kind := range []hera.CoreKind{hera.PPE, hera.SPE, hera.VPU} {
		var instrs, in uint64
		for _, c := range sys.VM.Machine.CoresOf(kind) {
			instrs += c.Stats.Instrs
			in += c.Stats.MigrationsIn
		}
		fmt.Printf(" %s instrs=%-8d mig-in=%-3d", kind, instrs, in)
	}
	fmt.Println()
}

func main() {
	fmt.Println("one unannotated FP program; the monitoring policy picks the cheapest-FP kind the machine has:")
	run("ppe:1")             // homogeneous: nowhere better to go
	run("ppe:1,spe:6")       // classic PS3: FP work migrates to the SPEs
	run("ppe:1,spe:4,vpu:2") // three kinds: the VPU wins the FP work
}
