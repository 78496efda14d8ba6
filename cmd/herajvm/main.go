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
//
// A flag the selected mode does not read is a usage error, not a
// silently ignored one.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	hera "herajvm"
	"herajvm/internal/experiments"
)

// modeFlags lists, per mode, the flags its code path reads. The
// one-shot run configures one machine; serve mode plays a trace through
// one System sized by experiments' serve defaults, cluster mode through
// the -shards fleet — neither reads the one-shot machine knobs, and
// only a cluster has an epoch stride or hand-off.
var modeFlags = map[string][]string{
	"one-shot": {"workload", "spes", "topology", "threads", "scale", "policy", "sched",
		"datacache", "codecache", "clockhz", "report"},
	"serve": {"workload", "spes", "topology", "sched",
		"jobs", "cadence", "trace", "seed", "deadline", "maxpending", "workloads"},
	"cluster": {"workload", "sched",
		"jobs", "cadence", "trace", "seed", "deadline", "workloads", "shards", "stride", "handoff"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its process edges passed in, so tests can drive the
// command: exit status 2 is a usage error, 1 a failed or invalid run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("herajvm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "mandelbrot",
			"compress | mpegaudio | mandelbrot, or a kernel workload: matmul | nbody | kmeans")
		spes     = fs.Int("spes", 6, "number of SPE cores beside one PPE (0 = run everything on the PPE)")
		topology = fs.String("topology", "", `machine topology, e.g. "ppe:1,spe:6" (overrides -spes)`)
		threads  = fs.Int("threads", 0, "worker threads (default: one per worker core)")
		scale    = fs.Int("scale", 0, "workload scale (default: workload-specific)")
		policy   = fs.String("policy", "annotation", "annotation | monitor | <kind> (ppe, spe, vpu: pin all threads to that kind)")
		sched    = fs.String("sched", "calendar", "scheduler: calendar | steal (same-kind work stealing) | migrate (stealing + cost-gated cross-kind migration)")
		dataKB   = fs.Int("datacache", 104, "SPE data cache size in KB")
		codeKB   = fs.Int("codecache", 88, "SPE code cache size in KB")
		clockHz  = fs.Float64("clockhz", 3.2e9, "core clock rate in Hz for cycle-to-time conversion")
		report   = fs.Bool("report", true, "print the machine report")
	)
	opt := experiments.Quick()
	experiments.BindServeFlags(fs, &opt)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(status int, err error) int {
		fmt.Fprintln(stderr, err)
		return status
	}
	mode := "one-shot"
	switch {
	case len(opt.ShardTopos) > 0:
		mode = "cluster"
	case opt.ServeJobs > 0 || opt.ServeTrace != "":
		mode = "serve"
	}
	var usage error
	fs.Visit(func(f *flag.Flag) {
		if usage != nil {
			return
		}
		if !slices.Contains(modeFlags[mode], f.Name) {
			usage = fmt.Errorf("herajvm: -%s reaches nothing in %s mode, which reads only -%s",
				f.Name, mode, strings.Join(modeFlags[mode], " -"))
		}
		// 0 means "use the default" only when left unset: an explicit
		// non-positive count would reach the guest as a negative array size.
		if (f.Name == "threads" && *threads <= 0) || (f.Name == "scale" && *scale <= 0) {
			usage = fmt.Errorf("herajvm: -%s must be positive, got %s", f.Name, f.Value)
		}
	})
	if usage != nil {
		return fail(2, usage)
	}

	spec, err := hera.WorkloadByName(*workload)
	if err != nil {
		return fail(2, err)
	}
	if *scale == 0 {
		*scale = spec.DefaultScale
	}

	topo := hera.PS3Topology(*spes)
	if *topology != "" {
		topo, err = hera.ParseTopology(*topology)
		if err != nil {
			return fail(2, err)
		}
	}
	if *threads == 0 {
		*threads = topo.DefaultWorkers()
	}

	// Serve mode: play an open-loop arrival trace of this workload
	// through the admission pipeline instead of one one-shot run. With
	// -shards the trace is dispatched across a cluster of Systems.
	if mode != "one-shot" {
		opt.Scheduler = *sched
		opt.Topologies = []hera.Topology{topo}
		if len(opt.ServeWorkloads) == 0 {
			opt.ServeWorkloads = []string{*workload}
		}
		var sweep experiments.Result
		if mode == "cluster" {
			sweep, err = experiments.RunCluster(opt)
		} else {
			sweep, err = experiments.RunServe(opt)
		}
		if err != nil {
			return fail(1, err)
		}
		fmt.Fprint(stdout, sweep.Table())
		return 0
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
		// Any kind name pins every thread to that kind.
		kind, err := hera.ParseCoreKind(*policy)
		if err != nil {
			return fail(2, fmt.Errorf("unknown policy %q (want annotation, monitor, or a core kind name)", *policy))
		}
		cfg.Policy = hera.FixedPolicy{Kind: kind}
	}

	prog, err := spec.Build(*threads, *scale)
	if err != nil {
		return fail(1, err)
	}
	sys, err := hera.NewSystem(cfg, prog)
	if err != nil {
		return fail(1, err)
	}
	job, _, err := sys.Submit(hera.JobRequest{Class: spec.MainClass, Method: "main"})
	if err != nil {
		return fail(1, err)
	}
	res, err := job.Wait()
	if err != nil {
		return fail(1, err)
	}

	checksum := int32(uint32(res.Value))
	want := spec.Reference(*threads, *scale)
	fmt.Fprintf(stdout, "%s: %d threads, machine %s, scale %d\n", spec.Name, *threads, topo, *scale)
	fmt.Fprintf(stdout, "completed in %d cycles (%.2f ms at %.2f GHz)\n",
		res.Cycles, res.Millis, cfg.Machine.EffectiveClockHz()/1e9)
	fmt.Fprintf(stdout, "checksum %d (%s)\n", checksum, validity(checksum == want))
	if res.Output != "" {
		fmt.Fprintf(stdout, "--- output ---\n%s", res.Output)
	}
	if *report {
		fmt.Fprintf(stdout, "--- machine report ---\n%s", sys.Report())
	}
	if checksum != want {
		return 1
	}
	return 0
}

func validity(ok bool) string {
	if ok {
		return "matches reference"
	}
	return "MISMATCH vs reference"
}
