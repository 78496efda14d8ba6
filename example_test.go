package hera_test

import (
	"fmt"
	"log"

	hera "herajvm"
)

// buildSquare returns a program whose Square.main squares its argument.
func buildSquare() *hera.Program {
	prog := hera.NewProgram()
	cls := prog.NewClass("Square", nil)
	m := cls.NewMethod("main", hera.Static, hera.Int, hera.Int)
	a := m.Asm()
	a.LoadI(0)
	a.LoadI(0)
	a.MulI()
	a.Ret()
	a.MustBuild()
	return prog
}

// ExampleSystem_Submit demonstrates deadline-aware submission: two
// jobs share one booted machine, each carrying a completion deadline.
// With admission shedding enabled, the second job's impossibly tight
// deadline (one cycle — less than any scheduling round) is refused at
// admission; the first completes and reports its deadline met. The
// whole script is deterministic, so the output is exact.
func ExampleSystem_Submit() {
	cfg := hera.DefaultConfig()
	cfg.Admission = hera.AdmissionConfig{Shed: true}
	sys, err := hera.NewSystem(cfg, buildSquare())
	if err != nil {
		log.Fatal(err)
	}

	ok, verdict, err := sys.Submit(hera.JobRequest{
		Class: "Square", Method: "main", Args: []uint64{7},
		Deadline: 200_000_000, // cycles, relative to admission
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("first:", verdict)

	shed, verdict, err := sys.Submit(hera.JobRequest{
		Class: "Square", Method: "main", Args: []uint64{8},
		Deadline: 1, // impossible: shorter than one scheduling round
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("second:", verdict)

	if err := sys.Drain(); err != nil {
		log.Fatal(err)
	}
	res, err := ok.Wait()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("first value:", int32(res.Value), "deadline met:", res.DeadlineMet)
	res, err = shed.Wait()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("second shed:", res.Shed)
	// Output:
	// first: admitted
	// second: shed
	// first value: 49 deadline met: true
	// second shed: true
}
