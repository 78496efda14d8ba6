// Kernel offload: the data-parallel subsystem end to end. The matmul
// workload ships two entry points over one shared body class — a
// scalar twin that runs the whole iteration space sequentially, and a
// kernel twin whose main calls hera/Parallel.forRange(0, n, body). The
// job has its machine to itself, so the launch splits the rows over
// every core kind — each pool gets the share that evens out its
// predicted finish, the PPE, whose caller waits at the barrier,
// included — fans one pinned worker out per core, stages each
// local-store worker's tiles into its scratchpad over double-buffered
// DMA, and joins at a barrier. The demo runs both twins on both machine
// shapes and prints the speedups; every run must produce the same
// checksum. (32 rows over seven cores take the same cycles on both.)
//
//	go run ./examples/kernels
package main

import (
	"fmt"
	"log"

	hera "herajvm"
)

func run(k hera.Workload, kernel bool, topo hera.Topology) (*hera.Result, int32) {
	prog, err := k.Build(0, 2) // 32x32 matrices; the launch planner picks the workers
	if err != nil {
		log.Fatal(err)
	}
	cfg := hera.DefaultConfig()
	cfg.Machine.Topology = topo
	sys, err := hera.NewSystem(cfg, prog)
	if err != nil {
		log.Fatal(err)
	}
	entry := k.ScalarClass
	if kernel {
		entry = k.MainClass
	}
	job, _, err := sys.Submit(hera.JobRequest{Class: entry, Method: "main"})
	if err != nil {
		log.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		log.Fatal(err)
	}
	return res, int32(uint32(res.Value))
}

func main() {
	k, err := hera.WorkloadByName("matmul")
	if err != nil {
		log.Fatal(err)
	}
	want := k.Reference(0, 2)
	for _, shape := range []string{"ppe:1,spe:6", "ppe:1,spe:4,vpu:2"} {
		topo, err := hera.ParseTopology(shape)
		if err != nil {
			log.Fatal(err)
		}
		scalar, ssum := run(k, false, topo)
		kernel, ksum := run(k, true, topo)
		if ssum != want || ksum != want {
			log.Fatalf("%s: checksums %d/%d, want %d", shape, ssum, ksum, want)
		}
		fmt.Printf("%-18s scalar %9d cycles | forRange %9d cycles  %.2fx  (%d workers, %d B staged)\n",
			shape, scalar.Cycles, kernel.Cycles,
			float64(scalar.Cycles)/float64(kernel.Cycles),
			kernel.KernelWorkers, kernel.KernelDMABytes)
	}
	fmt.Println("\nsame body, same checksum: the launch changes where and how fast, never what.")
}
