// Command herajvm runs one of the paper's workloads on a configured
// simulated Cell machine and prints the run's statistics: how the
// runtime placed threads, what the software caches did, and where the
// cycles went.
//
// Examples:
//
//	herajvm -workload mandelbrot -spes 6
//	herajvm -workload compress -spes 1 -scale 2
//	herajvm -workload mpegaudio -spes 0              # PPE only
//	herajvm -workload compress -policy monitor       # runtime-monitoring placement
//	herajvm -workload mandelbrot -sched steal        # same-kind work-stealing scheduler
//	herajvm -workload compress -sched migrate        # + cost-gated cross-kind migration
//	herajvm -workload mandelbrot -topology ppe:2,spe:2       # asymmetric machine
//	herajvm -workload mandelbrot -topology ppe:1,spe:4,vpu:2 # three core kinds
//	herajvm -workload matmul -topology ppe:1,spe:4,vpu:2     # Parallel.forRange kernel launch
//
// With -jobs or -trace set, herajvm serves the workload open-loop
// instead of running it once: jobs arrive on a seeded trace, each
// carrying a deadline, and the report shows admission verdicts, shed
// counts and latency percentiles under the chosen scheduler. The
// -jobs/-cadence/-trace/-seed/-deadline/-maxpending flags are shared
// with herabench and behave identically:
//
//	herajvm -workload compress -sched migrate -trace poisson -jobs 12
//	herajvm -workload mandelbrot -trace bursty -jobs 8 -seed 7
//
// With -shards set, the trace is served by a cluster instead of one
// machine: each shard is a full System (its own topology, scheduler,
// admission pipeline) and a dispatcher routes every arrival to the
// shard predicting the earliest completion, shedding only when no
// shard can meet the deadline:
//
//	herajvm -workload compress -shards "ppe:1,spe:4,vpu:2;ppe:1,spe:6" -jobs 16
package main

import (
	"flag"
	"fmt"
	"os"

	hera "herajvm"
	"herajvm/internal/experiments"
)

func main() {
	var (
		workload = flag.String("workload", "mandelbrot",
			"compress | mpegaudio | mandelbrot, or a kernel workload: matmul | nbody | kmeans")
		spes     = flag.Int("spes", 6, "number of SPE cores beside one PPE (0 = run everything on the PPE)")
		topology = flag.String("topology", "", `machine topology, e.g. "ppe:1,spe:6" (overrides -spes)`)
		threads  = flag.Int("threads", 0, "worker threads (default: one per worker core)")
		scale    = flag.Int("scale", 0, "workload scale (default: workload-specific)")
		policy   = flag.String("policy", "annotation", "annotation | monitor | <kind> (ppe, spe, vpu: pin all threads to that kind)")
		sched    = flag.String("sched", "calendar", "scheduler: calendar | steal (same-kind work stealing) | migrate (stealing + cost-gated cross-kind migration)")
		dataKB   = flag.Int("datacache", 104, "SPE data cache size in KB")
		codeKB   = flag.Int("codecache", 88, "SPE code cache size in KB")
		clockHz  = flag.Float64("clockhz", 3.2e9, "core clock rate in Hz for cycle-to-time conversion")
		report   = flag.Bool("report", true, "print the machine report")
	)
	opt := experiments.Quick()
	experiments.BindServeFlags(flag.CommandLine, &opt)
	flag.Parse()
	// 0 means "use the default" only when left unset: an explicit
	// non-positive count would reach the guest as a negative array size.
	flag.Visit(func(f *flag.Flag) {
		if (f.Name == "threads" && *threads <= 0) || (f.Name == "scale" && *scale <= 0) {
			fmt.Fprintf(os.Stderr, "herajvm: -%s must be positive, got %s\n", f.Name, f.Value)
			flag.Usage()
			os.Exit(2)
		}
	})

	spec, err := hera.WorkloadByName(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *scale == 0 {
		*scale = spec.DefaultScale
	}

	topo := hera.PS3Topology(*spes)
	if *topology != "" {
		topo, err = hera.ParseTopology(*topology)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *threads == 0 {
		*threads = topo.DefaultWorkers()
	}

	// Serve mode: play an open-loop arrival trace of this workload
	// through the admission pipeline instead of one one-shot run. With
	// -shards the trace is dispatched across a cluster of Systems.
	if opt.ServeJobs > 0 || opt.ServeTrace != "" || len(opt.ShardTopos) > 0 {
		opt.Scheduler = *sched
		opt.Topologies = []hera.Topology{topo}
		if len(opt.ServeWorkloads) == 0 {
			opt.ServeWorkloads = []string{*workload}
		}
		if len(opt.ShardTopos) > 0 {
			sweep, err := experiments.RunCluster(opt)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Print(sweep.Table())
			return
		}
		sweep, err := experiments.RunServe(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(sweep.Table())
		return
	}

	cfg := hera.DefaultConfig()
	cfg.Machine.Topology = topo
	cfg.Machine.ClockHz = *clockHz
	cfg.Scheduler = *sched // validated when the system boots
	cfg.DataCache.Size = uint32(*dataKB) << 10
	cfg.CodeCache.Size = uint32(*codeKB) << 10
	switch *policy {
	case "annotation":
		cfg.Policy = hera.AnnotationPolicy{}
	case "monitor":
		cfg.Policy = hera.DefaultMonitoringPolicy()
	default:
		// Any registered kind name pins every thread to that kind.
		kind, err := hera.ParseCoreKind(*policy)
		if err != nil {
			fmt.Fprintf(os.Stderr, "unknown policy %q (want annotation, monitor, or a core kind name)\n", *policy)
			os.Exit(2)
		}
		cfg.Policy = hera.FixedPolicy{Kind: kind}
	}

	prog, err := spec.Build(*threads, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sys, err := hera.NewSystem(cfg, prog)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	job, _, err := sys.Submit(hera.JobRequest{Class: spec.MainClass, Method: "main"})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, err := job.Wait()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	checksum := int32(uint32(res.Value))
	want := spec.Reference(*threads, *scale)
	fmt.Printf("%s: %d threads, machine %s, scale %d\n", spec.Name, *threads, topo, *scale)
	fmt.Printf("completed in %d cycles (%.2f ms at %.2f GHz)\n",
		res.Cycles, res.Millis, cfg.Machine.EffectiveClockHz()/1e9)
	fmt.Printf("checksum %d (%s)\n", checksum, validity(checksum == want))
	if res.Output != "" {
		fmt.Printf("--- output ---\n%s", res.Output)
	}
	if *report {
		fmt.Printf("--- machine report ---\n%s", sys.Report())
	}
	if checksum != want {
		os.Exit(1)
	}
}

func validity(ok bool) string {
	if ok {
		return "matches reference"
	}
	return "MISMATCH vs reference"
}
