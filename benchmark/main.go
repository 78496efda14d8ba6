// Command benchmark is the repository's benchmark: four workloads, two
// clocks (simulated cycles and host time), and per-layer numbers taken
// from outside the program. See README.md in this directory and
// BENCHMARK.json at the repository root.
//
//	go run -C benchmark . --workload figs --seed 1 --seconds 10 --trace 0
//	go run -C benchmark . --workload figs --trace 1
//	go run -C benchmark . -compare baselines out
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// findRoot returns the checkout: the working directory or its parent,
// whichever holds BENCHMARK.json (go run -C benchmark starts the
// program inside benchmark/).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found in . or ..: run from the checkout or with go run -C benchmark")
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	opt := defaultOptions()
	trace := flag.Int("trace", 0, "0 = end-to-end metrics with tracing off, 1 = traced run printing the per-layer metrics")
	timeout := flag.Duration("timeout", 170*time.Second, "fail the run, naming the workload, when it takes longer than this")
	compare := flag.Bool("compare", false, "compare two result files or directories: -compare a b")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json as the metric catalogue defines it")
	flag.StringVar(&opt.workload, "workload", "", "workload to run: figs, exec, serve or cluster")
	flag.Uint64Var(&opt.seed, "seed", opt.seed, "seed of the generated inputs")
	flag.Float64Var(&opt.seconds, "seconds", opt.seconds, "how long to measure")
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}

	if *printManifest {
		doc, err := manifest()
		if err != nil {
			return fail(err)
		}
		os.Stdout.Write(doc)
		return 0
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fail(errors.New("-compare takes two result files or directories"))
		}
		offenders, err := compareResults(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if len(offenders) > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: %d metrics outside their bound: %v\n", len(offenders), offenders)
			return 1
		}
		return 0
	}
	if opt.workload == "" {
		return fail(fmt.Errorf("-workload is required (one of %v)", workloadNames))
	}
	opt.trace = *trace != 0
	opt.guard = func(ctx context.Context) error { return guardFig4(ctx, root) }
	opt.outDir = filepath.Join(root, "benchmark", "out")
	opt.log = os.Stderr

	// Two guards against a wedged run. The context stops the cluster's
	// epoch barriers and the loops between jobs; System.Drain and
	// Job.Wait take no context, so a watchdog ends the process, naming
	// the workload, if the context's deadline passes without a result.
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	watchdog := time.AfterFunc(*timeout+5*time.Second, func() {
		fmt.Fprintf(os.Stderr, "benchmark: workload %s wedged: no result %s after the %s timeout\n",
			opt.workload, 5*time.Second, *timeout)
		os.Exit(3)
	})
	defer watchdog.Stop()

	rep, err := runWorkload(ctx, opt)
	if err != nil {
		return fail(err)
	}
	rep.printTable(os.Stdout)
	line, err := rep.resultLine()
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}
