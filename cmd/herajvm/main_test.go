package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFlagsReachTheirMode: herajvm has one mode, a one-shot run, so a
// flag of the serve or cluster drivers (herabench's now) is unknown,
// and an explicit non-positive count is refused; each exits 2 naming
// the flag, with nothing run. One invocation setting every flag runs.
func TestFlagsReachTheirMode(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string // "" = accepted: exit 0
	}{
		{[]string{"-workload", "mandelbrot", "-threads", "0"}, "-threads"},
		{[]string{"-workload", "mandelbrot", "-scale", "-1"}, "-scale"},
		{[]string{"-workload", "mandelbrot", "-jobs", "2"}, "-jobs"},
		{[]string{"-workload", "mandelbrot", "-shards", "ppe:1;ppe:1"}, "-shards"},
		{[]string{"-workload", "mandelbrot", "-spes", "2"}, "-spes"},

		{[]string{"-workload", "mandelbrot", "-topology", "ppe:1,spe:2", "-threads", "2", "-scale", "1",
			"-policy", "spe", "-datacache", "64", "-codecache", "64", "-clockhz", "1e9", "-report=false"}, ""},
	} {
		var stdout, stderr bytes.Buffer
		status := run(tc.args, &stdout, &stderr)
		switch {
		case tc.flag == "" && (status != 0 || stdout.Len() == 0):
			t.Errorf("herajvm %v: status %d, stderr %q; want a run", tc.args, status, stderr.String())
		case tc.flag != "" && (status != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), tc.flag)):
			t.Errorf("herajvm %v: status %d, stdout %q, stderr %q; want status 2 naming %s",
				tc.args, status, stdout.String(), stderr.String(), tc.flag)
		}
	}
}
