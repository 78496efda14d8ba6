package workloads

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"herajvm/internal/classfile"
	"herajvm/internal/vm"
)

// resetTemplates drops every template, so the next Build runs its
// builder again.
func resetTemplates() {
	templates.Lock()
	templates.classes = nil
	templates.Unlock()
}

// buildFresh is Build as it was before templates: the builder runs on a
// fresh library.
func buildFresh(t *testing.T, s Spec, threads, scale int) *classfile.Program {
	t.Helper()
	p := stdlibProgram()
	if err := s.buildInto(p, "", threads, scale); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTemplateKeysEntryPoint: a kernel workload's copy whose entry point
// is its sequential twin declares that entry alone, whether it follows
// the two-entry copy in a mix or is built after it. Both programs are
// the ones running the builders gives.
func TestTemplateKeysEntryPoint(t *testing.T) {
	mm := Matmul()
	entries := []MixEntry{{mm, 1, 1}, {scalarOf(mm), 1, 1}}
	mix, err := BuildMix(entries)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hashProgram(mix), hashProgram(buildEach(t, entries)); got != want {
		t.Errorf("BuildMix hashes to %s, building every entry to %s", got, want)
	}
	if c := mix.Lookup(JobPrefix(1) + mm.MainClass); c != nil {
		t.Errorf("the sequential-only entry declares %s", c.Name)
	}
	if _, err := mm.Build(1, 1); err != nil {
		t.Fatal(err)
	}
	one, err := scalarOf(mm).Build(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hashProgram(one), hashProgram(buildFresh(t, scalarOf(mm), 1, 1)); got != want {
		t.Errorf("sequential-only Build hashes to %s, its builder to %s", got, want)
	}
}

// TestTemplateNeedsBuilder: a Spec with no builder gets no template, and
// Build and BuildMix say so.
func TestTemplateNeedsBuilder(t *testing.T) {
	s := Spec{Name: "none", MainClass: "None"}
	if _, err := s.Build(1, 1); err == nil || !strings.Contains(err.Error(), "no builder") {
		t.Errorf("Build without a builder: %v", err)
	}
	if _, err := BuildMix([]MixEntry{{Compress(), 1, 1}, {s, 1, 1}}); err == nil || !strings.Contains(err.Error(), "mix entry 1") {
		t.Errorf("BuildMix without a builder: %v", err)
	}
	templates.Lock()
	_, held := templates.classes[templateKey{s.Name, s.MainClass, "", 1, 1}]
	templates.Unlock()
	if held {
		t.Error("a failed build was published")
	}
}

// TestSharedTemplateCopies: two Builds of one workload share every
// body's Code, Params and switch tables, and nothing a caller may
// write: no class, method, pool, handler table or annotation map.
// Clearing every annotation of one copy (as a policy study strips them)
// leaves the other copy and the next Build annotated.
func TestSharedTemplateCopies(t *testing.T) {
	for _, s := range append(All(), Kernels()...) {
		a, err := s.Build(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Build(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		annotated := 0
		for i, c := range a.Classes() {
			d := b.Classes()[i]
			if c == d {
				t.Fatalf("%s: both copies hold class %s", s.Name, c.Name)
			}
			for j, m := range c.Methods {
				n := d.Methods[j]
				switch {
				case m == n:
					t.Errorf("%s: both copies hold method %s", s.Name, m.Sig())
				case len(m.Code) > 0 && &m.Code[0] != &n.Code[0]:
					t.Errorf("%s: %s does not share its Code", s.Name, m.Sig())
				case len(m.Params) > 0 && &m.Params[0] != &n.Params[0]:
					t.Errorf("%s: %s does not share its Params", s.Name, m.Sig())
				case len(m.Pool) > 0 && &m.Pool[0] == &n.Pool[0]:
					t.Errorf("%s: %s shares its pool", s.Name, m.Sig())
				case len(m.Handlers) > 0 && &m.Handlers[0] == &n.Handlers[0]:
					t.Errorf("%s: %s shares its handlers", s.Name, m.Sig())
				}
				for k, e := range m.Pool {
					if sw, ok := e.(*classfile.Switch); ok && n.Pool[k] != sw {
						t.Errorf("%s: %s does not share its switch table", s.Name, m.Sig())
					}
				}
				if len(m.Annotations) > 0 {
					annotated++
				}
			}
		}
		if annotated == 0 && s.ScalarClass == "" {
			t.Errorf("%s: no annotated method to strip", s.Name)
		}
		want := hashProgram(a)
		for _, c := range a.Classes() {
			for _, m := range c.Methods {
				clear(m.Annotations)
			}
		}
		c, err := s.Build(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if hashProgram(b) != want || hashProgram(c) != want {
			t.Errorf("%s: clearing one copy's annotations moved another copy", s.Name)
		}
	}
}

// TestSharedTemplatesConcurrentBuilds: two goroutines build the paper
// workloads, alone and as one mix, from no templates at once; every
// program resolves and runs each entry to its reference checksum.
func TestSharedTemplatesConcurrentBuilds(t *testing.T) {
	resetTemplates()
	run := func(p *classfile.Program, class string, want int32) error {
		machine, err := vm.New(smallConfig(2), p)
		if err != nil {
			return err
		}
		th, err := runEntry(machine, class, "main")
		if err != nil {
			return err
		}
		if got := int32(uint32(th.Result)); got != want {
			return fmt.Errorf("%s: checksum %d, want %d", class, got, want)
		}
		return nil
	}
	work := func() error {
		var entries []MixEntry
		for _, s := range All() {
			p, err := s.Build(2, 1)
			if err != nil {
				return err
			}
			if err := run(p, s.MainClass, s.Reference(2, 1)); err != nil {
				return err
			}
			entries = append(entries, MixEntry{s, 2, 1})
		}
		for i, e := range entries {
			p, err := BuildMix(entries)
			if err != nil {
				return err
			}
			if err := run(p, e.MainClassOf(i), e.Spec.Reference(2, 1)); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = work()
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// TestSharedTemplatesBound: publishing one template past maxTemplates
// drops the others, and what is built next is still the program its
// builders give.
func TestSharedTemplatesBound(t *testing.T) {
	resetTemplates()
	mm := Matmul()
	for threads := 1; threads <= maxTemplates+1; threads++ {
		if _, err := mm.Build(threads, 1); err != nil {
			t.Fatal(err)
		}
	}
	templates.Lock()
	held := len(templates.classes)
	templates.Unlock()
	if held != 1 {
		t.Errorf("%d templates held after publishing %d, want 1", held, maxTemplates+1)
	}
	checkIdentity(t)
}
