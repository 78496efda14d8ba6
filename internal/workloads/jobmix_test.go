package workloads

import (
	"strings"
	"testing"

	"herajvm/internal/classfile"
)

// buildEach is BuildMix as it was before entries shared bodies: every
// entry's builder runs, on a fresh library.
func buildEach(t *testing.T, entries []MixEntry) *classfile.Program {
	t.Helper()
	p := stdlibProgram()
	for i, e := range entries {
		if err := e.Spec.buildInto(p, JobPrefix(i), e.Threads, e.Scale); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestBuildMixStampsRepeatedEntries: a mix that repeats entries — paper
// and kernel workloads, at the same and at other worker counts and
// scales — is the program running every entry's builder gives, listing
// and resolved IDs and slots alike; an entry equal to an earlier one in
// workload, threads and scale is stamped from the same template, so it
// shares that entry's bytecode and has pools of its own, naming its own
// classes.
func TestBuildMixStampsRepeatedEntries(t *testing.T) {
	spec := func(name string) Spec {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	compress, mpeg, matmul := spec("compress"), spec("mpegaudio"), spec("matmul")
	entries := []MixEntry{
		{compress, 2, 1}, {mpeg, 2, 1}, {matmul, 2, 1},
		{compress, 2, 1}, // entry 0's template
		{compress, 3, 1}, // other threads: another template
		{mpeg, 2, 2},     // other scale: another template
		{matmul, 2, 1},   // entry 2's template
		{mpeg, 2, 1},     // entry 1's template
		{compress, 3, 1}, // entry 4's template
	}
	stampedFrom := map[int]int{3: 0, 6: 2, 7: 1, 8: 4}

	mix, err := BuildMix(entries)
	if err != nil {
		t.Fatal(err)
	}
	each := buildEach(t, entries)
	if got, want := hashProgram(mix), hashProgram(each); got != want {
		t.Fatalf("BuildMix hashes to %s, building every entry to %s", got, want)
	}
	for _, p := range []*classfile.Program{mix, each} {
		if err := p.Resolve(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := hashProgram(mix), hashProgram(each); got != want {
		t.Errorf("resolved, BuildMix hashes to %s, building every entry to %s", got, want)
	}
	if mix.StaticSlots() != each.StaticSlots() || len(mix.Classes()) != len(each.Classes()) {
		t.Fatalf("BuildMix: %d classes, %d static slots; building every entry: %d, %d",
			len(mix.Classes()), mix.StaticSlots(), len(each.Classes()), each.StaticSlots())
	}
	for i, c := range mix.Classes() {
		e := each.Classes()[i]
		if c.ID != e.ID || c.InstanceSlots != e.InstanceSlots || len(c.VTable) != len(e.VTable) {
			t.Errorf("%s: ID %d, %d slots, vtable %d; built: %d, %d, %d",
				c.Name, c.ID, c.InstanceSlots, len(c.VTable), e.ID, e.InstanceSlots, len(e.VTable))
		}
		for j, f := range c.Statics {
			if f.Slot != e.Statics[j].Slot {
				t.Errorf("%s: static slot %d, built %d", f, f.Slot, e.Statics[j].Slot)
			}
		}
		for j, m := range c.Methods {
			if n := e.Methods[j]; m.ID != n.ID || m.VSlot != n.VSlot || m.IfaceID != n.IfaceID || m.NativeTag != n.NativeTag {
				t.Errorf("%s: ID %d vslot %d iface %d tag %q; built: %d %d %d %q",
					m.Sig(), m.ID, m.VSlot, m.IfaceID, m.NativeTag, n.ID, n.VSlot, n.IfaceID, n.NativeTag)
			}
		}
	}

	shared := 0
	for to, from := range stampedFrom {
		prefix, fromPrefix := JobPrefix(to), JobPrefix(from)
		for _, c := range mix.Classes() {
			name, ok := strings.CutPrefix(c.Name, prefix)
			if !ok {
				continue
			}
			orig := mix.Lookup(fromPrefix + name)
			for j, m := range c.Methods {
				o := orig.Methods[j]
				if len(m.Code) > 0 && &m.Code[0] != &o.Code[0] {
					t.Errorf("%s: bytecode not shared with %s", m.Sig(), o.Sig())
				}
				if len(m.Pool) > 0 && &m.Pool[0] == &o.Pool[0] {
					t.Errorf("%s: shares its pool with %s", m.Sig(), o.Sig())
				}
				for _, e := range m.Pool {
					var owner *classfile.Class
					switch x := e.(type) {
					case *classfile.Class:
						owner = x
					case *classfile.Field:
						owner = x.Class
					case *classfile.Method:
						owner = x.Class
					}
					if owner != nil && strings.HasPrefix(owner.Name, "J") && !strings.HasPrefix(owner.Name, prefix) {
						t.Errorf("%s: pool names %s, another entry's", m.Sig(), owner.Name)
					}
				}
				shared++
			}
		}
	}
	if shared < 50 {
		t.Errorf("%d stamped methods checked; the mix has more", shared)
	}
}
