// Package workloads contains the three benchmarks of the paper's
// evaluation, written against the bytecode assembler and validated
// against pure-Go reference implementations:
//
//   - compress: LZW compression over byte/int tables (SPECjvm2008
//     compress is LZW-based) — irregular main-memory access, the
//     paper's data-cache-bound workload;
//   - mpegaudio: a multi-stage audio decoder proxy (bitstream unpack,
//     switch-based symbol decode, dequantisation, antialias butterflies,
//     IMDCT, polyphase synthesis) spread across many methods — the
//     paper's code-cache-bound workload;
//   - mandelbrot: an 800x600-style escape-time fractal — the paper's
//     floating-point-bound workload.
//
// Every workload builds the same multi-threaded harness shape as the
// SPECjvm2008 runs the paper used: W worker threads (subclasses of
// java/lang/Thread) partition the work by worker ID, accumulate an int32
// checksum, and publish it through a synchronized adder; main starts and
// joins the workers and returns the total. The checksum is identical
// regardless of thread count or core placement, which the tests verify
// against the Go references. The data-parallel kernel workloads
// (kernels.go) are Specs of the same type, built around a hera/Kernel
// body instead of worker threads.
//
// A builder runs once per process for each distinct entry point, worker
// count and scale, into a template that Build and BuildMix copy.
package workloads

import (
	"fmt"
	"sync"

	"herajvm/internal/classfile"
	"herajvm/internal/vm"
)

// Spec describes one buildable workload: one of the paper's three, or a
// data-parallel kernel workload (matmul, nbody, kmeans).
type Spec struct {
	// Name is the benchmark name as the paper uses it.
	Name string
	// MainClass.main is the entry point; it returns the checksum. A
	// kernel workload's MainClass launches its body through
	// hera/Parallel.forRange.
	MainClass string
	// ScalarClass names a kernel workload's sequential twin, whose main
	// runs the same body on the calling thread; both entries are in
	// every program the workload builds, unless MainClass names the
	// twin too. Empty for the paper workloads.
	ScalarClass string
	// Reference computes the expected checksum in pure Go.
	Reference func(threads, scale int) int32
	// DefaultScale is the scale used by the experiment harness.
	DefaultScale int

	// build adds one copy of the workload's classes through ns. A kernel
	// workload ignores threads, in build and in Reference: its
	// parallelism is the launch planner's.
	build func(ns namespace, threads, scale int)
}

// Build constructs the program for the given worker count and scale: a
// fresh copy of the library and of the workload's template.
func (s Spec) Build(threads, scale int) (*classfile.Program, error) {
	p := library().Copy()
	if err := s.stampInto(p, "", threads, scale); err != nil {
		return nil, err
	}
	return p, nil
}

// stampInto adds to p, a copy of the library, a copy of the workload's
// template classes, every class name prefixed by prefix: "" for Build,
// mix entry i's JobPrefix in BuildMix.
func (s Spec) stampInto(p *classfile.Program, prefix string, threads, scale int) error {
	classes, err := s.templateOf(threads, scale)
	if err != nil {
		return err
	}
	p.Stamp(classes, namespace{prefix: prefix}.name)
	return nil
}

// buildInto runs the workload's builder, adding one copy of its classes
// to p under prefix.
func (s Spec) buildInto(p *classfile.Program, prefix string, threads, scale int) error {
	if s.build == nil {
		return fmt.Errorf("workloads: %q has no builder", s.Name)
	}
	s.build(namespace{p: p, prefix: prefix, main: s.MainClass, scalar: s.ScalarClass}, threads, scale)
	return nil
}

// templates holds, for the life of the process, the workload classes of
// one built, unresolved program (the library, then those classes under
// prefix "") per distinct key. Nothing writes to a template after it is
// published. Publishing one past maxTemplates drops the map whole, as
// the JIT's body table does (`herabench -fig all` publishes 33).
var templates struct {
	sync.Mutex
	classes map[templateKey][]*classfile.Class
}

const maxTemplates = 64

// templateKey is every Spec field a builder reads, and its arguments.
type templateKey struct {
	name, main, scalar string
	threads, scale     int
}

// templateOf returns s's template classes for threads and scale, running
// the builder the first time the process asks.
func (s Spec) templateOf(threads, scale int) ([]*classfile.Class, error) {
	k := templateKey{s.Name, s.MainClass, s.ScalarClass, threads, scale}
	templates.Lock()
	defer templates.Unlock()
	if classes, ok := templates.classes[k]; ok {
		return classes, nil
	}
	p := stdlibProgram()
	n := len(p.Classes())
	if err := s.buildInto(p, "", threads, scale); err != nil {
		return nil, err
	}
	if templates.classes == nil || len(templates.classes) >= maxTemplates {
		templates.classes = make(map[templateKey][]*classfile.Class)
	}
	templates.classes[k] = p.Classes()[n:]
	return templates.classes[k], nil
}

// All returns the three paper workloads in the paper's order.
func All() []Spec {
	return []Spec{Compress(), MPEGAudio(), Mandelbrot()}
}

// ByName finds a workload, a paper workload or a kernel workload, so
// serve traces and cluster mixes can interleave data-parallel kernel
// jobs with the paper workloads.
func ByName(name string) (Spec, error) {
	for _, s := range append(All(), Kernels()...) {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workloads: unknown workload %q", name)
}

// stdlibProgram returns a fresh program with the built-in library
// installed — the base every template starts from.
func stdlibProgram() *classfile.Program {
	p := classfile.NewProgram()
	vm.Stdlib(p)
	return p
}

// library is the template every Build and BuildMix program starts from.
var library = sync.OnceValue(stdlibProgram)

// namespace is one copy of a workload in a program. Builders create
// classes only through class, and name is the one place the job-copy
// prefix is applied: many copies (of the same or different workloads)
// share one program without sharing statics. main and scalar are the
// Spec's entry class names.
type namespace struct {
	p            *classfile.Program
	prefix       string
	main, scalar string
}

// name is the copy's name for class.
func (ns namespace) name(class string) string { return ns.prefix + class }

// class declares the copy's class name.
func (ns namespace) class(name string, super *classfile.Class) *classfile.Class {
	return ns.p.NewClass(ns.name(name), super)
}

// accumulator declares the copy's checksum class: a static int total
// and a synchronized static add(int) that folds a term into it.
func (ns namespace) accumulator(name string) (*classfile.Field, *classfile.Method) {
	c := ns.class(name, nil)
	total := c.NewStaticField("total", classfile.Int)
	add := c.NewMethod("add", classfile.FlagStatic|classfile.FlagSynchronized,
		classfile.Void, classfile.Int)
	a := add.Asm()
	a.GetStatic(total)
	a.LoadI(0)
	a.AddI()
	a.PutStatic(total)
	a.RetVoid()
	a.MustBuild()
	return total, add
}

// harness is the shared worker scaffolding of a paper workload.
type harness struct {
	namespace
	worker  *classfile.Class
	run     *classfile.Method
	id      *classfile.Field
	workers *classfile.Field
	scale   *classfile.Field
	total   *classfile.Field
	add     *classfile.Method
}

// newHarness creates a Counter class with a synchronized adder and a
// Worker (extends Thread) whose run() body the workload fills in. run()
// is annotated so the placement policy sends workers to SPEs when the
// machine has them.
func newHarness(ns namespace, workerName string) *harness {
	threadCls := ns.p.Lookup("java/lang/Thread")
	total, add := ns.accumulator("Counter")
	w := ns.class(workerName, threadCls)
	h := &harness{
		namespace: ns,
		worker:    w,
		id:        w.NewField("id", classfile.Int),
		workers:   w.NewField("workers", classfile.Int),
		scale:     w.NewField("scale", classfile.Int),
		total:     total,
		add:       add,
	}
	h.run = w.NewMethod("run", 0, classfile.Void).Annotate(classfile.AnnRunOnSPE)
	return h
}

// buildMain emits the entry class's main: spawn `threads` workers with ids
// 0..threads-1, start them, join them, return Counter.total.
// initCall, when non-nil, is a static no-arg method invoked first
// (coefficient-table setup).
func (h *harness) buildMain(threads, scale int, initCall *classfile.Method) {
	threadCls := h.p.Lookup("java/lang/Thread")
	start := threadCls.MethodByName("start")
	join := threadCls.MethodByName("join")

	c := h.class(h.main, nil)
	m := c.NewMethod("main", classfile.FlagStatic, classfile.Int)
	a := m.Asm()
	if initCall != nil {
		a.InvokeStatic(initCall)
	}
	// Worker[] ws = new Worker[threads];
	a.ConstI(int32(threads))
	a.ANewArray(h.worker)
	a.StoreRef(0)
	loop1, done1 := a.NewLabel(), a.NewLabel()
	a.ConstI(0)
	a.StoreI(1)
	a.Bind(loop1)
	a.LoadI(1)
	a.ConstI(int32(threads))
	a.IfICmpGE(done1)
	a.New(h.worker)
	a.StoreRef(2)
	a.LoadRef(2)
	a.LoadI(1)
	a.PutField(h.id)
	a.LoadRef(2)
	a.ConstI(int32(threads))
	a.PutField(h.workers)
	a.LoadRef(2)
	a.ConstI(int32(scale))
	a.PutField(h.scale)
	a.LoadRef(0)
	a.LoadI(1)
	a.LoadRef(2)
	a.AStore(classfile.ElemRef)
	a.LoadRef(2)
	a.InvokeVirtual(start)
	a.Inc(1, 1)
	a.Goto(loop1)
	a.Bind(done1)

	loop2, done2 := a.NewLabel(), a.NewLabel()
	a.ConstI(0)
	a.StoreI(1)
	a.Bind(loop2)
	a.LoadI(1)
	a.ConstI(int32(threads))
	a.IfICmpGE(done2)
	a.LoadRef(0)
	a.LoadI(1)
	a.ALoad(classfile.ElemRef)
	a.InvokeVirtual(join)
	a.Inc(1, 1)
	a.Goto(loop2)
	a.Bind(done2)

	a.GetStatic(h.total)
	a.Ret()
	a.MustBuild()
}
