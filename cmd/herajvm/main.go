// Command herajvm runs one of the paper's workloads on a configured
// simulated Cell machine and prints the run's statistics: how the
// runtime placed threads, what the software caches did, and where the
// cycles went. It reaches the simulator through the public hera package
// alone.
//
// Examples:
//
//	herajvm -workload mandelbrot                             # the PS3 shape, ppe:1,spe:6
//	herajvm -workload compress -topology ppe:1,spe:1 -scale 2
//	herajvm -workload mpegaudio -topology ppe:1              # PPE only
//	herajvm -workload compress -policy monitor               # runtime-monitoring placement
//	herajvm -workload mandelbrot -topology ppe:2,spe:2       # asymmetric machine
//	herajvm -workload mandelbrot -topology ppe:1,spe:4,vpu:2 # three core kinds
//	herajvm -workload matmul -topology ppe:1,spe:4,vpu:2     # Parallel.forRange kernel launch
//
// Serving a trace of jobs, on one machine or on a cluster of them, is
// herabench's: -fig serve and -fig cluster.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	hera "herajvm"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its process edges passed in, so tests can drive the
// command: exit status 2 is a usage error, 1 a failed or invalid run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("herajvm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "mandelbrot",
			"compress | mpegaudio | mandelbrot, or a kernel workload: matmul | nbody | kmeans")
		topology = fs.String("topology", hera.PS3Topology(6).String(), `machine topology, e.g. "ppe:1,spe:4,vpu:2" ("ppe:1" runs everything on the PPE)`)
		threads  = fs.Int("threads", 0, "worker threads (default: one per worker core)")
		scale    = fs.Int("scale", 0, "workload scale (default: workload-specific)")
		policy   = fs.String("policy", "annotation", "annotation | monitor | <kind> (ppe, spe, vpu: pin all threads to that kind)")
		dataKB   = fs.Int("datacache", 104, "SPE data cache size in KB")
		codeKB   = fs.Int("codecache", 88, "SPE code cache size in KB")
		clockHz  = fs.Float64("clockhz", 3.2e9, "core clock rate in Hz for cycle-to-time conversion")
		report   = fs.Bool("report", true, "print the machine report")
	)
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
	var usage error
	fs.Visit(func(f *flag.Flag) {
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
	topo, err := hera.ParseTopology(*topology)
	if err != nil {
		return fail(2, err)
	}
	if *threads == 0 {
		*threads = topo.DefaultWorkers()
	}

	cfg := hera.DefaultConfig()
	cfg.Machine.Topology = topo
	cfg.Machine.ClockHz = *clockHz
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
