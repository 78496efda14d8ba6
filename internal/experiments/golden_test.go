package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestFigure4Golden holds testdata/golden_fig4.txt as a whole file —
// Figure 4(a) then 4(b) at Quick sizes, and nothing after them — since
// the benchmark's Figure-4 guard reads that file at that path. The two
// runs are TestFigures' own, shared through runGolden.
func TestFigure4Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure-4 replay skipped in -short mode")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden_fig4.txt"))
	if err != nil {
		t.Fatalf("golden file: %v", err)
	}
	got := ""
	for _, name := range []string{"4a", "4b"} {
		res, err := runGolden(goldenNamed(t, name))
		if err != nil {
			t.Fatal(err)
		}
		got += res.Table() + "\n"
	}
	if got != string(want) {
		t.Errorf("Figure-4 output diverged from testdata/golden_fig4.txt; if the change is meant to move it, "+
			"rewrite the file from the repository root with\n\t%s\n--- want ---\n%s--- got ---\n%s",
			regenerate("golden_fig4.txt", []string{"-fig 4a", "-fig 4b"}), want, got)
	}
}
