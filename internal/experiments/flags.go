package experiments

import (
	"flag"
	"strings"

	"herajvm/internal/cell"
)

// BindServeFlags registers the shared CLI surface of the open-loop
// serve driver and the cluster layer above it on a flag set, filling o
// as the flags parse — so `herabench` and `herajvm` expose identical
// -jobs/-cadence/-trace/-seed/-deadline/-maxpending/-workloads/-shards/
// -stride/-handoff knobs with identical semantics and help text. Zero
// values defer to each figure's defaults; a malformed -shards list
// fails the parse.
func BindServeFlags(fs *flag.FlagSet, o *Options) {
	fs.IntVar(&o.ServeJobs, "jobs", 0, "serve: number of jobs the arrival trace emits (0 = default)")
	fs.Uint64Var(&o.ServeCadence, "cadence", 0, "serve: mean inter-arrival gap in cycles (0 = default)")
	fs.StringVar(&o.ServeTrace, "trace", "", "serve: arrival trace, one of "+strings.Join(Traces(), "|")+" (default poisson)")
	fs.Uint64Var(&o.ServeSeed, "seed", 0, "serve: arrival-trace PRNG seed (0 = default)")
	fs.Uint64Var(&o.ServeDeadline, "deadline", 0, "serve: per-job completion deadline in cycles relative to admission (0 = default)")
	fs.IntVar(&o.ServeMaxPending, "maxpending", 0, "serve: admission queue-depth backstop for shedding runs (0 = default)")
	// Kernel workloads (matmul, nbody, kmeans) are accepted and enter
	// the mix as forRange launches.
	fs.Func("workloads", `serve/cluster: comma-separated job-mix workloads, e.g. "compress,matmul,kmeans" ("" = the paper mix)`,
		func(s string) error {
			o.ServeWorkloads = strings.Split(s, ",")
			return nil
		})
	fs.Func("shards", `cluster: semicolon-separated per-shard machine shapes, e.g. "ppe:1,spe:6;ppe:1,spe:4,vpu:2" ("" = four default serve shards)`,
		func(s string) (err error) {
			o.ShardTopos, err = cell.ParseTopologyList(s)
			return err
		})
	fs.Uint64Var(&o.EpochStride, "stride", 0, "cluster: epoch-barrier stride in cycles (0 = default)")
	fs.BoolVar(&o.Handoff, "handoff", false,
		"cluster: run the inter-shard hand-off arm (imbalanced fleet, hand-off off vs on, replay check)")
}
