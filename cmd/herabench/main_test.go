package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"herajvm/internal/experiments"
)

// herabench runs the command in-process and returns its exit status and
// captured streams.
func herabench(args ...string) (status int, stdout, stderr string) {
	var out, errs bytes.Buffer
	status = run(args, &out, &errs)
	return status, out.String(), errs.String()
}

// TestUsageErrors: every misuse exits 2 with a message before any
// figure runs — an unknown figure, -json with more than one figure
// selected, and a gate flag no selected figure consumes.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "nope"}, `unknown figure "nope"`},
		{[]string{"-fig", "all", "-json", filepath.Join(t.TempDir(), "x.json")}, "-json"},
		{[]string{"-fig", "4a", "-minspeedup", "2"}, "-minspeedup"},
		{[]string{"-fig", "cluster", "-minspeedup", "2"}, "-minspeedup"},
		{[]string{"-fig", "fastpath", "-handoff"}, "-handoff"},
		{[]string{"-fig", "cluster", "-shards", "qpu:1"}, "-shards"},
	} {
		status, stdout, stderr := herabench(tc.args...)
		if status != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("herabench %v: status %d, stdout %q, stderr %q; want status 2 naming %s",
				tc.args, status, stdout, stderr, tc.want)
		}
	}
}

// TestHelpListsRegistry: the -fig help is built from the registry, so
// it lists exactly the registered ids (plus "all").
func TestHelpListsRegistry(t *testing.T) {
	status, _, stderr := herabench("-h")
	if status != 0 {
		t.Fatalf("-h exited %d", status)
	}
	m := regexp.MustCompile(`(?m)^\s+-fig string\n\s+(.*) \(default "all"\)$`).FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("no -fig entry in the help:\n%s", stderr)
	}
	var want []string
	for _, f := range experiments.Figures() {
		want = append(want, f.ID)
	}
	if got := strings.Join(want, " | ") + " | all"; m[1] != got {
		t.Errorf("-fig help lists %q, registry is %q", m[1], got)
	}
}

// TestFig4aMatchesGoldenAndWritesJSON drives one figure end to end:
// its stdout is the first half of testdata/golden_fig4.txt, and -json
// writes that figure's result (at the parent commit it wrote nothing
// for any figure but four).
func TestFig4aMatchesGoldenAndWritesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("Figure-4(a) replay skipped in -short mode")
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden_fig4.txt"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fig4a.json")
	status, stdout, stderr := herabench("-fig", "4a", "-json", path)
	if status != 0 {
		t.Fatalf("exit %d: %s", status, stderr)
	}
	rest, ok := strings.CutPrefix(string(golden), stdout)
	if !ok || !strings.HasPrefix(rest, "Figure 4(b)") {
		t.Errorf("-fig 4a output is not the first half of the golden file:\n%s", stdout)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("-json wrote nothing: %v", err)
	}
	var doc experiments.Fig4a
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Rows) != 3 {
		t.Errorf("-json wrote %d rows (%v), want Figure 4(a)'s three", len(doc.Rows), err)
	}
}
