package hera_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamples builds every program under examples/ once and holds what
// each prints to its checked-in golden, testdata/examples/<name>.txt.
// The programs print only simulated state through the public API, so
// their output is exact. (Go's "// Output:" examples cannot hold them:
// several print lines that end in spaces.)
func TestExamples(t *testing.T) {
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, d := range dirs {
		name := d.Name()
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%v\n%s", err, stderr.Bytes())
			}
			file := filepath.Join("testdata", "examples", name+".txt")
			regen := "go run ./examples/" + name + " > " + file
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatalf("%v; write it from the repository root with\n\t%s", err, regen)
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("output differs from %s; if the change is meant to move it, "+
					"rewrite the file from the repository root with\n\t%s\n--- want ---\n%s--- got ---\n%s",
					file, regen, want, got)
			}
		})
	}
}
