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
// Each entry is stamped from the process's template for its workload,
// entry point, worker count and scale (classfile.Program.Stamp), so
// its methods share their bytecode with every other copy of that
// template and differ only in the pools that name the entry's own
// classes. The program is the one running every entry's builder would
// give.
func BuildMix(entries []MixEntry) (*classfile.Program, error) {
	p := library().Copy()
	for i, e := range entries {
		if err := e.Spec.stampInto(p, JobPrefix(i), e.Threads, e.Scale); err != nil {
			return nil, fmt.Errorf("workloads: mix entry %d (%s): %w", i, e.Spec.Name, err)
		}
	}
	return p, nil
}
