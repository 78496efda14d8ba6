package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// TestFlagsReachTheirMode: a flag the selected mode never reads is a
// usage error naming it (exit 2, nothing run) — at the parent commit
// serve and cluster mode returned before reading seven of them and
// printed the same bytes with or without — and one accepted invocation
// per mode shows the check does not refuse the flags that mode does
// read.
func TestFlagsReachTheirMode(t *testing.T) {
	serve := []string{"-workload", "mandelbrot", "-jobs", "2"}
	cluster := []string{"-workload", "mandelbrot", "-jobs", "2", "-shards", "ppe:1,spe:2;ppe:1,spe:2"}
	with := func(base []string, more ...string) []string { return append(slices.Clone(base), more...) }
	for _, tc := range []struct {
		args []string
		flag string // "" = accepted: exit 0
	}{
		{with(serve, "-datacache", "8"), "-datacache"},
		{with(serve, "-codecache", "8"), "-codecache"},
		{with(serve, "-policy", "ppe"), "-policy"},
		{with(serve, "-clockhz", "1e9"), "-clockhz"},
		{with(serve, "-report=false"), "-report"},
		{with(serve, "-threads", "1"), "-threads"},
		{with(serve, "-scale", "1"), "-scale"},
		{with(serve, "-stride", "500000"), "-stride"},
		{with(serve, "-handoff"), "-handoff"},
		{with(cluster, "-scale", "1"), "-scale"},
		{with(cluster, "-spes", "2"), "-spes"},
		{with(cluster, "-maxpending", "4"), "-maxpending"},
		{[]string{"-workload", "mandelbrot", "-seed", "7"}, "-seed"},
		{[]string{"-workload", "mandelbrot", "-handoff"}, "-handoff"},
		{[]string{"-workload", "mandelbrot", "-threads", "0"}, "-threads"},

		{[]string{"-workload", "mandelbrot", "-scale", "1", "-spes", "2", "-policy", "spe",
			"-datacache", "64", "-codecache", "64", "-clockhz", "1e9", "-report=false"}, ""},
		{with(serve, "-topology", "ppe:1,spe:2",
			"-cadence", "300000", "-seed", "7", "-maxpending", "4"), ""},
		{with(cluster, "-stride", "500000", "-trace", "uniform"), ""},
	} {
		var stdout, stderr bytes.Buffer
		status := run(tc.args, &stdout, &stderr)
		switch {
		case tc.flag == "" && (status != 0 || stdout.Len() == 0):
			t.Errorf("herajvm %v: status %d, stderr %q; want a run", tc.args, status, stderr.String())
		case tc.flag != "" && (status != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), tc.flag+" ")):
			t.Errorf("herajvm %v: status %d, stdout %q, stderr %q; want status 2 naming %s",
				tc.args, status, stdout.String(), stderr.String(), tc.flag)
		}
	}
}
