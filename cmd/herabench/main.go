// Command herabench regenerates the paper's evaluation figures
// (Figures 4(a), 4(b), 5, 6, 7), the repo's ablations (A1-A4) and the
// reproduction's own sweeps as text tables. Every figure is one entry
// of experiments.Figures(); after printing a figure's table herabench
// runs its Check (every row valid / identical / matching, and on the
// figure's own defaults its claims, such as the kernels figure's 2x
// matmul floor and serve's shedding at overload) and exits 1 if it
// fails. Every number it prints is simulated, so any invocation replays
// byte for byte; host time is measured by the repository benchmark
// (benchmark/README.md).
//
// The serve and cluster figures are the simulator's serving front end:
// -jobs, -cadence, -trace, -seed, -deadline and -workloads script the
// arrivals, -maxpending bounds serve's admission queue, -topology sets
// the serve machine and -shards, -stride and -handoff the cluster. A
// figure flag that no selected figure reads is a usage error.
//
// Examples:
//
//	herabench                 # all figures, quick sizes
//	herabench -full -fig 4a   # just Figure 4(a), paper-shaped sizes
//	herabench -fig a3 -v      # ablation A3 with progress logging
//	herabench -fig topo -topology "ppe:1,spe:6;ppe:1,spe:4,vpu:2"
//	herabench -fig serve -trace bursty -jobs 40 -cadence 250000     # heavier churn
//	herabench -fig serve -workloads compress -topology ppe:1,spe:6  # one workload on the PS3 shape
//	herabench -fig cluster -shards "ppe:1,spe:4,vpu:2;ppe:1,spe:6" -jobs 16
//	herabench -fig cluster -handoff -timeout 10m -cpuprofile cpu.pprof
//
// README.md walks through every figure id and flag.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"herajvm/internal/cell"
	"herajvm/internal/experiments"
	"herajvm/internal/workloads"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its process edges passed in, so tests can drive the
// command: exit status 2 is a usage error, 1 a failed figure or Check.
func run(args []string, stdout, stderr io.Writer) int {
	figures := experiments.Figures()
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.ID
	}
	fs := flag.NewFlagSet("herabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig   = fs.String("fig", "all", strings.Join(ids, " | ")+" | all")
		full  = fs.Bool("full", false, "paper-shaped workload sizes (slower)")
		topos = fs.String("topology", "",
			`semicolon-separated machine shapes for the topo/kernels sweeps (the first one for serve), e.g. "ppe:1,spe:6;ppe:1,spe:4,vpu:2"`)
		jsonPath = fs.String("json", "", "write the selected figure's result as JSON (the BENCH_*.json shape) to this path; needs a single -fig")
		timeout  = fs.Duration("timeout", 0, "fail any figure still running after this long instead of hanging (0 = no limit)")
		cpuprof  = fs.String("cpuprofile", "", "write a CPU profile of the figure runs to this path")
		memprof  = fs.String("memprofile", "", "write a heap profile (taken after the figure runs) to this path")
		verb     = fs.Bool("v", false, "log per-run progress to stderr")
	)
	var opt experiments.Options
	bindServeFlags(fs, &opt)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "herabench: "+format+"\n", a...)
		return 2
	}

	sizes := experiments.Quick()
	if *full {
		sizes = experiments.Full()
	}
	opt.ScaleOverride = sizes.ScaleOverride
	if *verb {
		opt.Progress = stderr
	}
	if *topos != "" {
		list, err := cell.ParseTopologyList(*topos)
		if err != nil {
			return usage("%v", err)
		}
		opt.Topologies = list
	}

	var selected []experiments.Figure
	for _, f := range figures {
		if want := strings.ToLower(*fig); want == "all" || want == f.ID {
			selected = append(selected, f)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "herabench: unknown figure %q; -fig takes all or one of:\n", *fig)
		for _, f := range figures {
			fmt.Fprintf(stderr, "  %-9s %s\n", f.ID, f.Doc)
		}
		return 2
	}
	if *jsonPath != "" && len(selected) > 1 {
		return usage("-json writes one figure's result; select one with -fig")
	}
	// A figure flag no selected figure reads would be dropped without a
	// word: -handoff, say, would report the hand-off claims held where
	// they never ran.
	var unread []string
	fs.Visit(func(fl *flag.Flag) {
		ids, ok := readers[fl.Name]
		if ok && !slices.ContainsFunc(selected, func(f experiments.Figure) bool { return slices.Contains(ids, f.ID) }) {
			unread = append(unread, fmt.Sprintf("-%s applies only to -fig %s", fl.Name, strings.Join(ids, " or ")))
		}
	})
	if len(unread) > 0 {
		return usage("%s", strings.Join(unread, "; "))
	}

	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opt.Ctx = ctx
	}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return usage("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return usage("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
			}
		}()
	}

	for _, f := range selected {
		res, err := f.Run(opt)
		if err != nil {
			fmt.Fprintf(stderr, "figure %s: %v\n", f.ID, err)
			return 1
		}
		fmt.Fprintln(stdout, res.Table())
		if *jsonPath != "" {
			out, err := json.MarshalIndent(res, "", "  ")
			if err == nil {
				err = os.WriteFile(*jsonPath, append(out, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintf(stderr, "figure %s json: %v\n", f.ID, err)
				return 1
			}
		}
		if c, ok := res.(experiments.Checker); ok {
			if err := c.Check(opt); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
	}
	return 0
}

// readers names the figures that read each figure flag; every other
// flag applies to any figure. -fig all selects every reader.
var readers = map[string][]string{
	"topology": {"topo", "kernels", "serve"},

	"jobs":      {"serve", "cluster"},
	"cadence":   {"serve", "cluster"},
	"trace":     {"serve", "cluster"},
	"seed":      {"serve", "cluster"},
	"deadline":  {"serve", "cluster"},
	"workloads": {"serve", "cluster"},

	"maxpending": {"serve"},

	"shards":  {"cluster"},
	"stride":  {"cluster"},
	"handoff": {"cluster"},
}

// bindServeFlags registers the serve and cluster figures' flags on fs,
// filling o as they parse. A zero value defers to each figure's default
// and an empty list to its default mix or fleet; a list naming an
// unknown workload or a malformed shape fails the parse.
func bindServeFlags(fs *flag.FlagSet, o *experiments.Options) {
	fs.IntVar(&o.ServeJobs, "jobs", 0, "serve/cluster: number of jobs the arrival trace emits (0 = default)")
	fs.Uint64Var(&o.ServeCadence, "cadence", 0, "serve/cluster: mean inter-arrival gap in cycles (0 = default)")
	fs.Func("trace", "serve/cluster: arrival trace, one of "+strings.Join(experiments.Traces(), "|")+" (default poisson)",
		func(s string) error {
			if s != "" && !slices.Contains(experiments.Traces(), s) {
				return fmt.Errorf("unknown trace %q", s)
			}
			o.ServeTrace = s
			return nil
		})
	fs.Uint64Var(&o.ServeSeed, "seed", 0, "serve/cluster: arrival-trace PRNG seed (0 = default)")
	fs.Uint64Var(&o.ServeDeadline, "deadline", 0, "serve/cluster: per-job completion deadline in cycles relative to admission (0 = default)")
	fs.IntVar(&o.ServeMaxPending, "maxpending", 0, "serve: admission queue-depth backstop for shedding runs (0 = default)")
	// Kernel workloads (matmul, nbody, kmeans) are accepted and enter
	// the mix as forRange launches.
	fs.Func("workloads", `serve/cluster: comma-separated job-mix workloads, e.g. "compress,matmul,kmeans" ("" = the paper mix)`,
		func(s string) error {
			o.ServeWorkloads = nil
			if s == "" {
				return nil
			}
			for _, name := range strings.Split(s, ",") {
				if _, err := workloads.ByName(name); err != nil {
					return err
				}
				o.ServeWorkloads = append(o.ServeWorkloads, name)
			}
			return nil
		})
	fs.Func("shards", `cluster: semicolon-separated per-shard machine shapes, e.g. "ppe:1,spe:6;ppe:1,spe:4,vpu:2" ("" = four default serve shards)`,
		func(s string) (err error) {
			o.ShardTopos = nil
			if s != "" {
				o.ShardTopos, err = cell.ParseTopologyList(s)
			}
			return err
		})
	fs.Uint64Var(&o.EpochStride, "stride", 0, "cluster: epoch-barrier stride in cycles (0 = default)")
	fs.BoolVar(&o.Handoff, "handoff", false,
		"cluster: run the inter-shard hand-off arm (imbalanced fleet, hand-off off vs on, replay check)")
}
