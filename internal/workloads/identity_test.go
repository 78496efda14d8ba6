package workloads

import (
	"crypto/sha256"
	"fmt"
	"io"
	"maps"
	"slices"
	"testing"

	"herajvm/internal/classfile"
)

// programIdentity pins every workload's program as its builders emitted
// it, SHA-256 over hashProgram: Build(2, 1) and a two-entry BuildMix of
// the same workload (threads 2, scale 1). A refactor of the builders
// must leave both unchanged — that is what lets it claim no simulated
// number moved.
var programIdentity = map[string][2]string{
	"compress": {"6453528d70dced742e4ae8040455453db7081ccd2bf7bc0bb38004634babe8a2",
		"be4a8563e7bb8dd3b8132392107c73ac149a666e5e1f19f6e91f7cf5bce75b58"},
	"mpegaudio": {"5b6ac3147bb7ba2e8c6bfeefd66ada675529d912a97a5b30869010e88d17b8a5",
		"3a5f94d2045bf8464fad196e3b0437d886f5a5bdffb7cf2dadc23ac7e6162738"},
	"mandelbrot": {"85bb5a07f76d5252b06aeb4e961488533149dc781fa9b79c6a87c12adafa957e",
		"fe6cfbef658ee264d22b168d37cf8c3fb6eaa23d67fa5ee9b50a67a26c3ef242"},
	"matmul": {"6b165b641096bea1aa330bd3af7dc081b4624127c89b5c3b0720ebc66f5e10eb",
		"ddbe04c81177a645bd3ca0f2a8714d0a6a26be8dbe8af605acdf449695d1ca27"},
	"nbody": {"a84fdb5ffd9d75e70719c0dc695328726fb6d7bafa16e73319697e9070d6af4e",
		"37df49c601f03870fb5b91339eaa4fef1aaa3abaf13e8c955a1fe2d2299bda8b"},
	"kmeans": {"06aef41341be629b87b915084684d010a6c5b3bb499f82a422984847ba339d4c",
		"19da1baaded0da65a8b0501e4a97e692ac13e217fca49fb1514d02e32644924c"},
}

// hashProgram digests a program in creation order: each class's name,
// superclass, interfaces and fields, and each method's annotations and
// listing.
func hashProgram(p *classfile.Program) string {
	h := sha256.New()
	for _, c := range p.Classes() {
		super := ""
		if c.Super != nil {
			super = c.Super.Name
		}
		fmt.Fprintf(h, "class %s extends %s iface=%v\n", c.Name, super, c.IsInterface)
		for _, i := range c.Interfaces {
			fmt.Fprintf(h, "implements %s\n", i.Name)
		}
		for _, f := range c.Fields {
			fmt.Fprintf(h, "field %s %v volatile=%v\n", f.Name, f.Type, f.Volatile)
		}
		for _, f := range c.Statics {
			fmt.Fprintf(h, "static %s %v volatile=%v\n", f.Name, f.Type, f.Volatile)
		}
		for _, m := range c.Methods {
			writeSorted(h, m.Annotations)
			fmt.Fprintf(h, "flags %d\n%s", m.Flags, m.Disassemble())
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func writeSorted[V any](w io.Writer, m map[string]V) {
	for _, k := range slices.Sorted(maps.Keys(m)) {
		fmt.Fprintf(w, "@%s=%v\n", k, m[k])
	}
}

// TestProgramIdentity: every workload builds, alone and as a two-copy
// job mix, exactly the program it built when the hashes were taken.
func TestProgramIdentity(t *testing.T) { checkIdentity(t) }

// checkIdentity holds Build(2, 1) and the two-entry BuildMix of every
// workload to programIdentity.
func checkIdentity(t *testing.T) {
	t.Helper()
	for name, want := range programIdentity {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		one, err := s.Build(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		mix, err := BuildMix([]MixEntry{{Spec: s, Threads: 2, Scale: 1}, {Spec: s, Threads: 2, Scale: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if got := hashProgram(one); got != want[0] {
			t.Errorf("%s: Build(2, 1) hashes to %s, want %s", name, got, want[0])
		}
		if got := hashProgram(mix); got != want[1] {
			t.Errorf("%s: two-entry BuildMix hashes to %s, want %s", name, got, want[1])
		}
	}
}
