#!/usr/bin/env bash
# Replay gates: every figure below must print byte-identical output
# from two separate processes. Each herabench run also asserts the
# figure's own Check (every row valid / identical / matching), so a
# diverged pass or an invalid row fails here with herabench's exit 1 —
# no grepping the tables for "false".
#
#   scripts/replay-gates.sh            # all gates (CI's determinism job)
#   scripts/replay-gates.sh kernels    # only the gates whose name matches
#   scripts/replay-gates.sh examples   # only the examples/ programs
#
# The golden Figure-4 diff (default machine) is not a replay gate — it
# compares against testdata/golden_fig4.txt — and stays its own CI step.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/herabench" ./cmd/herabench

# replay NAME ARGS...: run herabench ARGS twice, demand identical stdout.
replay() {
	local name=$1
	shift
	if [ -n "${only:-}" ] && [[ "$name" != *"$only"* ]]; then
		return
	fi
	"$tmp/herabench" "$@" > "$tmp/$name.1"
	"$tmp/herabench" "$@" > "$tmp/$name.2"
	if ! diff -u "$tmp/$name.1" "$tmp/$name.2"; then
		echo "replay gate $name: herabench $* printed different output on its second run" >&2
		exit 1
	fi
	echo "replay gate $name: ok"
}
only=${1:-}

# The topology sweep: the same programs on six machine shapes, where
# stealing and cross-kind migration do the most work.
replay topo -fig topo
# Open-loop serving: latency percentiles, goodput, per-job verdicts and
# counters, shedding off and on. The default script is an overload, so
# the shed path runs and its verdicts are part of the contract; the
# figure's Check fails a shedding pass that sheds nothing.
replay serve -fig serve -trace poisson
# Cluster: the in-process `identical` column diffs each pass against the
# serial reference; this adds the cross-process half — the merged stream
# may not depend on GOMAXPROCS, goroutine interleaving or which process
# produced it.
replay cluster -fig cluster -timeout 10m
# Hand-off: a frozen job's image and its rehydrated continuation are
# part of the replay contract, hand-off counts included.
replay cluster-handoff -fig cluster -handoff -timeout 10m
# Kernel offload: every column is simulated state (cycles, workers, DMA
# bytes, checksums), so the figure's Check — the 2x matmul
# kernel-vs-scalar floor on every shape's plan (the lowest is
# ppe:1,vpu:2 at 2.68x), each plan's bound against its best sub-machine
# and the three-kind split's gain over them — is exact on any runner.
replay kernels -fig kernels
# Examples: each program under examples/ prints only simulated state
# through the public API, so two runs of each must agree byte for byte.
if [ -z "$only" ] || [[ "examples" == *"$only"* ]]; then
	mkdir "$tmp/examples"
	go build -o "$tmp/examples/" ./examples/...
	for bin in "$tmp"/examples/*; do
		name=examples/$(basename "$bin")
		"$bin" > "$tmp/example.1"
		"$bin" > "$tmp/example.2"
		if ! diff -u "$tmp/example.1" "$tmp/example.2"; then
			echo "replay gate $name: its second run printed different output" >&2
			exit 1
		fi
		echo "replay gate $name: ok"
	done
fi
