package classfile_test

import (
	"slices"
	"testing"

	"herajvm/internal/classfile"
	"herajvm/internal/workloads"
)

// TestSharedCopiesNameOwnProgram: a Build and a two-entry BuildMix of
// every workload are copies of templates the process shares, yet every
// superclass, interface, handler type and pool entry of every class of
// them belongs to the program itself.
func TestSharedCopiesNameOwnProgram(t *testing.T) {
	for _, s := range append(workloads.All(), workloads.Kernels()...) {
		one, err := s.Build(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		mix, err := workloads.BuildMix([]workloads.MixEntry{{Spec: s, Threads: 2, Scale: 1}, {Spec: s, Threads: 1, Scale: 1}})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*classfile.Program{one, mix} {
			own := func(what string, c *classfile.Class) {
				if c != nil && classfile.ProgramOf(c) != p {
					t.Errorf("%s: %s names %s of another program", s.Name, what, c.Name)
				}
			}
			for _, c := range p.Classes() {
				own(c.Name, c)
				own(c.Name+"'s superclass", c.Super)
				for _, i := range c.Interfaces {
					own(c.Name+"'s interface", i)
				}
				for _, m := range c.Methods {
					if m.Class != c {
						t.Errorf("%s: %s is declared by %s", s.Name, m.Sig(), c.Name)
					}
					for _, h := range m.Handlers {
						own(m.Sig()+"'s handler", h.Type)
					}
					for _, e := range m.Pool {
						switch x := e.(type) {
						case *classfile.Class:
							own(m.Sig()+"'s pool", x)
						case *classfile.Field:
							own(m.Sig()+"'s pool", x.Class)
							if !slices.Contains(x.Class.Fields, x) && !slices.Contains(x.Class.Statics, x) {
								t.Errorf("%s: %s's pool names %s, not a field of its class", s.Name, m.Sig(), x)
							}
						case *classfile.Method:
							own(m.Sig()+"'s pool", x.Class)
							if !slices.Contains(x.Class.Methods, x) {
								t.Errorf("%s: %s's pool names %s, not a method of its class", s.Name, m.Sig(), x.Sig())
							}
						}
					}
				}
			}
			if err := p.Resolve(); err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
		}
	}
}
