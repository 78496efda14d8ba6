// Command herabench regenerates the paper's evaluation figures
// (Figures 4(a), 4(b), 5, 6, 7), the repo's ablations (A1-A4) and the
// reproduction's own sweeps as text tables. Every figure is one entry
// of experiments.Figures(); after printing a figure's table herabench
// runs its Check (every row valid / identical / matching, plus the
// opt-in -minspeedup floor) and exits 1 if it fails. Every number it
// prints is simulated, so any invocation replays byte for byte; host
// time is measured by the repository benchmark (benchmark/README.md).
//
// Examples:
//
//	herabench                 # all figures, quick sizes
//	herabench -full -fig 4a   # just Figure 4(a), paper-shaped sizes
//	herabench -fig a3 -v      # ablation A3 with progress logging
//	herabench -fig topo -topology "ppe:1,spe:6;ppe:1,spe:4,vpu:2"
//	herabench -fig serve -trace bursty -jobs 40 -cadence 250000     # heavier churn
//	herabench -fig fastpath                             # fast path vs stepping: match + coverage
//	herabench -fig kernels -minspeedup 2.0              # the replay gates' offload floor
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
	"strings"

	"herajvm/internal/cell"
	"herajvm/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its process edges passed in, so tests can drive the
// command: exit status 2 is a usage error, 1 a failed figure or gate.
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
			`semicolon-separated machine shapes for the topo/kernels sweeps (the first one for serve/fastpath), e.g. "ppe:1,spe:6;ppe:1,spe:4,vpu:2"`)
		jsonPath   = fs.String("json", "", "write the selected figure's result as JSON (the BENCH_*.json shape) to this path; needs a single -fig")
		minSpeedup = fs.Float64("minspeedup", 0, "kernels: minimum matmul kernel-vs-scalar cycle speedup on a VPU pool; exit 1 below it (0 = no floor)")
		timeout    = fs.Duration("timeout", 0, "fail any figure still running after this long instead of hanging (0 = no limit)")
		cpuprof    = fs.String("cpuprofile", "", "write a CPU profile of the figure runs to this path")
		memprof    = fs.String("memprofile", "", "write a heap profile (taken after the figure runs) to this path")
		verb       = fs.Bool("v", false, "log per-run progress to stderr")
	)
	var opt experiments.Options
	experiments.BindServeFlags(fs, &opt)
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
	opt.Threads, opt.MaxSPEs, opt.ScaleOverride = sizes.Threads, sizes.MaxSPEs, sizes.ScaleOverride
	if *verb {
		opt.Progress = stderr
	}
	opt.MinSpeedup = *minSpeedup
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
	// A gate flag must reach a figure whose Check reads it: silently
	// ignoring one would report a gate as passed that never ran.
	gates := map[string]bool{"minspeedup": *minSpeedup > 0, "handoff": opt.Handoff}
	for _, name := range []string{"minspeedup", "handoff"} {
		used := false
		for _, f := range selected {
			for _, g := range f.Gates {
				used = used || g.Flag == name
			}
		}
		if gates[name] && !used {
			return usage("-%s applies to none of the selected figures", name)
		}
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
			for _, g := range f.Gates {
				if gates[g.Flag] {
					fmt.Fprintf(stdout, "%s gate: ok\n", g.Name)
				}
			}
		}
	}
	return 0
}
