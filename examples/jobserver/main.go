// Jobserver: boot one VM and submit several jobs to it as a session —
// the same entry method run as independent jobs arriving over
// simulated time, each with its own per-job cycles, output and
// scheduling counters. Each job carries a completion deadline, and the
// last submission carries one so tight the admission pipeline sheds it
// on the spot — its Wait returns immediately with Result.Shed set.
//
//	go run ./examples/jobserver
package main

import (
	"fmt"
	"log"

	hera "herajvm"
)

func main() {
	prog := hera.NewProgram()
	system := prog.Lookup("java/lang/System")

	// class Work { @RunOnSPE static int crunch(int n) { ...spin...; return n*n } }
	cls := prog.NewClass("Work", nil)
	crunch := cls.NewMethod("crunch", hera.Static, hera.Int, hera.Int).
		Annotate(hera.RunOnSPE)
	{
		a := crunch.Asm()
		// for (i = 0; i < 200000; i++) {}  then return n*n
		loop, done := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(1)
		a.Bind(loop)
		a.LoadI(1)
		a.ConstI(200_000)
		a.IfICmpGE(done)
		a.Inc(1, 1)
		a.Goto(loop)
		a.Bind(done)
		a.LoadI(0)
		a.LoadI(0)
		a.MulI()
		a.Ret()
		a.MustBuild()
	}
	m := cls.NewMethod("main", hera.Static, hera.Int, hera.Int)
	a := m.Asm()
	a.Str("job running")
	a.InvokeStatic(system.MethodByName("println"))
	a.LoadI(0)
	a.InvokeStatic(crunch)
	a.Ret()
	a.MustBuild()

	cfg := hera.DefaultConfig()
	// Deadline shedding on: submissions predicted (from the scheduler's
	// drain estimates) to miss their deadline are refused at admission.
	cfg.Admission = hera.AdmissionConfig{Shed: true}
	sys, err := hera.NewSystem(cfg, prog)
	if err != nil {
		log.Fatal(err)
	}

	// Four submissions, arriving 100k cycles apart, sharing the booted
	// machine. Nothing executes until the machine is driven. The first
	// three carry a roomy deadline; the last one's is impossibly tight,
	// so the admission pipeline sheds it.
	var jobs []*hera.Job
	for i := 0; i < 4; i++ {
		deadline := uint64(200_000_000)
		if i == 3 {
			deadline = 1
		}
		job, verdict, err := sys.Submit(hera.JobRequest{
			Class:    "Work",
			Method:   "main",
			Name:     fmt.Sprintf("crunch#%d", i),
			Args:     []uint64{uint64(uint32(i + 5))},
			Arrival:  uint64(i) * 100_000,
			Deadline: deadline,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: verdict %s\n", job.Name, verdict)
		jobs = append(jobs, job)
	}
	if err := sys.Drain(); err != nil {
		log.Fatal(err)
	}
	for _, job := range jobs {
		res, err := job.Wait()
		if err != nil {
			log.Fatal(err)
		}
		if res.Shed {
			fmt.Printf("%s: shed at admission\n", job.Name)
			continue
		}
		fmt.Printf("%s: value=%d cycles=%d (admitted %d) deadline met=%v migrations=%d compiles=%d\n",
			job.Name, int32(uint32(res.Value)), res.Cycles, res.AdmittedAt,
			res.DeadlineMet, res.Migrations, res.Compiles)
	}
	fmt.Print(sys.Report())
}
