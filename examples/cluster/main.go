// Cluster: boot a fleet of shards — each a full System with its own
// machine shape — behind a dispatcher that routes every job to the
// shard predicting the earliest completion from its scheduler's drain
// estimates. The shards advance concurrently on their own goroutines
// under an epoch barrier, yet the merged result stream is the same
// bytes the fleet produces when advanced serially: host parallelism
// changes wall-clock time only, never the simulation.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"

	hera "herajvm"
)

// build assembles one shard's program: a class whose main spins on an
// SPE-annotated kernel. Each shard needs its own copy — shards share
// no mutable state, which is what lets them advance in parallel.
func build() (*hera.Program, error) {
	prog := hera.NewProgram()
	cls := prog.NewClass("Work", nil)
	crunch := cls.NewMethod("crunch", hera.Static, hera.Int, hera.Int).
		Annotate(hera.RunOnSPE)
	{
		a := crunch.Asm()
		loop, done := a.NewLabel(), a.NewLabel()
		a.ConstI(0)
		a.StoreI(1)
		a.Bind(loop)
		a.LoadI(1)
		a.ConstI(150_000)
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
	a.LoadI(0)
	a.InvokeStatic(crunch)
	a.Ret()
	a.MustBuild()
	return prog, nil
}

func main() {
	// Two shards with different machines: a three-kind box and a
	// classic PS3 shape. The dispatcher weighs them by predicted
	// completion, not by assumption — the bigger SPE pool tends to win
	// jobs until its queue catches up.
	shapes := []string{"ppe:1,spe:2", "ppe:1,spe:6"}
	var shards []hera.ShardConfig
	for _, shape := range shapes {
		topo, err := hera.ParseTopology(shape)
		if err != nil {
			log.Fatal(err)
		}
		cfg := hera.DefaultConfig()
		cfg.Machine.Topology = topo
		shards = append(shards, hera.ShardConfig{Cfg: cfg, Build: build})
	}

	cl, err := hera.BootCluster(hera.ClusterConfig{Shed: true}, shards)
	if err != nil {
		log.Fatal(err)
	}

	// Eight jobs arriving 50k cycles apart, each with a roomy deadline.
	for i := 0; i < 8; i++ {
		job, verdict, err := cl.Submit(hera.JobRequest{
			Class:    "Work",
			Method:   "main",
			Name:     fmt.Sprintf("crunch#%d", i),
			Args:     []uint64{uint64(uint32(i + 3))},
			Arrival:  uint64(i) * 50_000,
			Deadline: 200_000_000,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: shard %d, verdict %s\n", job.Req.Name, job.Shard, verdict)
	}
	if err := cl.Drain(); err != nil {
		log.Fatal(err)
	}

	results, err := cl.Results()
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Printf("%s: shard %d value=%d latency=%d cycles met=%v\n",
			r.Name, r.Shard, int32(uint32(r.Res.Value)), r.Res.Cycles, r.Res.DeadlineMet)
	}

	report, err := cl.Report()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report)
}
