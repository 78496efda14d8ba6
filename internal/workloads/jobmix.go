package workloads

import (
	"fmt"

	"herajvm/internal/classfile"
)

// MixEntry is one job instance in a multi-job program: a workload plus
// its worker count and scale.
type MixEntry struct {
	Spec    Spec
	Threads int
	Scale   int
}

// JobPrefix returns the class-name prefix isolating mix entry i's
// classes ("J07" — entry i's entry point is JobPrefix(i)+MainClass).
// The builders never see it: the namespace of entry i's copy applies it.
func JobPrefix(i int) string { return fmt.Sprintf("J%02d", i) }

// MainClassOf returns mix entry i's entry-point class name.
func (e MixEntry) MainClassOf(i int) string {
	return namespace{prefix: JobPrefix(i)}.name(e.Spec.MainClass)
}

// BuildMix builds one program containing an isolated copy of each
// entry's workload classes (separate Counters, separate coefficient
// tables), so many benchmark instances — of the same workload or
// different ones — can run concurrently as jobs on one booted VM
// without sharing mutable statics. Entry i's entry point is
// JobPrefix(i)+MainClass.
//
// A builder runs once per distinct workload, worker count and scale:
// a later entry equal in those is stamped from the first one's classes
// (classfile.Program.Stamp), so its methods share their bytecode and
// differ only in the pools that name the entry's own classes. The
// program is the one running every entry's builder would give.
func BuildMix(entries []MixEntry) (*classfile.Program, error) {
	type key struct {
		name           string
		threads, scale int
	}
	type built struct {
		classes []*classfile.Class
		prefix  string
	}
	p := stdlibProgram()
	first := make(map[key]built)
	for i, e := range entries {
		k := key{e.Spec.Name, e.Threads, e.Scale}
		if b, ok := first[k]; ok {
			namespace{p: p, prefix: JobPrefix(i)}.stamp(b.classes, b.prefix)
			continue
		}
		n := len(p.Classes())
		if err := e.Spec.buildInto(p, JobPrefix(i), e.Threads, e.Scale); err != nil {
			return nil, fmt.Errorf("workloads: mix entry %d (%s): %w", i, e.Spec.Name, err)
		}
		first[k] = built{p.Classes()[n:], JobPrefix(i)}
	}
	return p, nil
}
