// Package hera is the public API of the Hera-JVM reproduction: a Java
// virtual machine that hides the heterogeneity of a (simulated) Cell
// processor behind a homogeneous multi-threaded machine, after
// "Hera-JVM: Abstracting Processor Heterogeneity Behind a Virtual
// Machine" (McIlroy & Sventek, HotOS 2009).
//
// A minimal session:
//
//	prog := hera.NewProgram()
//	cls := prog.NewClass("Main", nil)
//	m := cls.NewMethod("main", hera.Static, hera.Int)
//	a := m.Asm()
//	a.ConstI(21)
//	a.ConstI(2)
//	a.MulI()
//	a.Ret()
//	a.MustBuild()
//
//	sys, _ := hera.NewSystem(hera.DefaultConfig(), prog)
//	job, _, _ := sys.Submit(hera.JobRequest{Class: "Main", Method: "main"})
//	res, _ := job.Wait()
//	fmt.Println(int32(res.Value), res.Cycles)
//
// A System is a long-lived session: the VM stays booted, and many jobs
// can be submitted to it asynchronously (in simulated time) and waited
// on individually, each with its own per-job accounting — cycles from
// admission to completion, captured output, and
// migration/steal/compile/GC counters:
//
//	job1, _, _ := sys.Submit(hera.JobRequest{Class: "Main", Method: "main"})
//	job2, _, _ := sys.Submit(hera.JobRequest{Class: "Main", Method: "main", Arrival: 500_000})
//	_ = sys.Drain()
//	res1, _ := job1.Wait()
//	res2, _ := job2.Wait()
//	fmt.Println(res1.Cycles, res2.Cycles, res2.Migrations)
//
// Every submission passes through an admission pipeline and Submit
// returns its verdict — Admitted, Delayed (accepted, but predicted to
// queue) or Shed. A JobRequest may carry a Deadline (cycles, relative
// to admission); with Config.Admission shedding enabled, jobs the
// scheduler's drain estimates predict to miss their deadline are shed
// at admission and never run. Replaying the same submission script
// reproduces the same results byte for byte: admission is ordered by
// (arrival cycle, submission sequence), verdicts included, and the
// machine's stepping is deterministic.
//
// Threads whose methods carry placement annotations (RunOnSPE,
// FloatIntensive, ...) migrate transparently between the PPE and the
// SPEs; unannotated programs run correctly regardless of placement.
// See docs/ARCHITECTURE.md for the architecture and README.md for the
// reproduction of the paper's figures.
//
// Above the single System sits the cluster layer: BootCluster starts N
// independent shards — each a full System with its own topology,
// scheduler and admission config — and a dispatcher that routes every
// submission to the shard predicting the earliest completion, shedding
// only when no shard can take it. Shards advance concurrently on their
// own goroutines under a conservative epoch barrier, so the simulation
// scales wall-clock with host cores while the merged result stream
// stays byte-identical to serial advancement (see
// docs/ARCHITECTURE.md, "Cluster layer").
package hera

import (
	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/cluster"
	"herajvm/internal/experiments"
	"herajvm/internal/isa"
	"herajvm/internal/sched"
	"herajvm/internal/vm"
	"herajvm/internal/workloads"
)

// Program building (see internal/classfile for full documentation).
type (
	// Program is a closed world of classes built via the assembler API.
	Program = classfile.Program
	// Class is a declared class or interface.
	Class = classfile.Class
	// Method is a declared method; Method.Asm() assembles its body.
	Method = classfile.Method
	// Field is a declared field.
	Field = classfile.Field
	// Asm is the bytecode assembler.
	Asm = classfile.Asm
	// TypeKind is a verification-level value type.
	TypeKind = classfile.TypeKind
	// MethodFlags modify method declarations.
	MethodFlags = classfile.MethodFlags
)

// Type kinds.
const (
	// Void marks a method with no return value.
	Void = classfile.Void
	// Int is the 32-bit integer value type.
	Int = classfile.Int
	// Long is the 64-bit integer value type.
	Long = classfile.Long
	// Float is the 32-bit floating-point value type.
	Float = classfile.Float
	// Double is the 64-bit floating-point value type.
	Double = classfile.Double
	// Ref is the object-reference value type.
	Ref = classfile.Ref
)

// Method flags.
const (
	// Static declares a method with no receiver.
	Static = classfile.FlagStatic
	// Native declares a method implemented by the runtime, not bytecode.
	Native = classfile.FlagNative
	// Synchronized wraps the method body in its receiver's (or class's)
	// monitor.
	Synchronized = classfile.FlagSynchronized
	// Abstract declares a method without a body, to be overridden.
	Abstract = classfile.FlagAbstract
)

// Placement annotations (the paper's behaviour hints, §3).
const (
	// FloatIntensive sends the thread to the kind with the cheapest
	// predicted floating point.
	FloatIntensive = classfile.AnnFloatIntensive
	// MemoryIntensive sends the thread to the kind with the cheapest
	// predicted memory access.
	MemoryIntensive = classfile.AnnMemoryIntensive
	// RunOnSPE pins the annotated method's thread to the SPE pool.
	RunOnSPE = classfile.AnnRunOnSPE
	// RunOnPPE pins the annotated method's thread to the PPE pool.
	RunOnPPE = classfile.AnnRunOnPPE
)

// Array element kinds for NewArray/ALoad/AStore.
const (
	// ElemBool is a boolean array element.
	ElemBool = classfile.ElemBool
	// ElemByte is a byte array element.
	ElemByte = classfile.ElemByte
	// ElemChar is a 16-bit char array element.
	ElemChar = classfile.ElemChar
	// ElemShort is a 16-bit short array element.
	ElemShort = classfile.ElemShort
	// ElemInt is a 32-bit int array element.
	ElemInt = classfile.ElemInt
	// ElemFloat is a 32-bit float array element.
	ElemFloat = classfile.ElemFloat
	// ElemLong is a 64-bit long array element.
	ElemLong = classfile.ElemLong
	// ElemDouble is a 64-bit double array element.
	ElemDouble = classfile.ElemDouble
	// ElemRef is an object-reference array element.
	ElemRef = classfile.ElemRef
)

// NewProgram creates a program with the built-in Java library subset
// (Object, String, Runnable, Thread, System, Math) installed.
func NewProgram() *Program {
	p := classfile.NewProgram()
	vm.Stdlib(p)
	return p
}

// Runtime configuration and the system itself.
type (
	// Config tunes the machine and runtime; see vm.Config.
	Config = vm.Config
	// MachineConfig tunes the simulated Cell processor.
	MachineConfig = cell.Config
	// System is a booted Hera-JVM instance — a long-lived session that
	// accepts job submissions (Submit, Probe) and is driven by Job.Wait,
	// Drain and RunUntil. It embeds the VM: sys.VM reaches the machine,
	// the compilers and the collector counters.
	System = vm.System
	// JobRequest describes one submission to a booted System: an entry
	// method, its arguments as slot values (an int v is uint64(uint32(v))),
	// an arrival cycle and an optional completion deadline. Placement is
	// the machine's: Config.Policy.
	JobRequest = vm.JobSpec
	// Job is one submitted job; Job.Wait drives the machine until it
	// completes and returns its per-job Result, and Job.Err reports its
	// first thread trap without driving anything.
	Job = vm.Job
	// Result summarises one completed job: admission-to-completion
	// cycles, the entry method's return value, the job's own captured
	// output, its admission verdict and deadline fate, and — embedded —
	// its JobStats.
	Result = vm.Result
	// JobStats is a job's own accounting: migrations, steals, compiles,
	// GC pauses and cycles billed to it, kernel launches, workers and
	// staging DMA. Result embeds it, so res.Migrations reads through.
	JobStats = vm.JobStats
	// Verdict is the admission pipeline's decision for one submission
	// (Admitted, Delayed or Shed).
	Verdict = vm.Verdict
	// AdmissionConfig bounds the admission pipeline (Config.Admission):
	// a pending-job backstop plus deadline-predictive shedding. The
	// zero value admits everything.
	AdmissionConfig = vm.AdmissionConfig
	// Policy decides thread placement.
	Policy = vm.Policy
	// AnnotationPolicy places threads by code annotations (the default).
	AnnotationPolicy = vm.AnnotationPolicy
	// FixedPolicy pins all threads to one core kind.
	FixedPolicy = vm.FixedPolicy
	// MonitoringPolicy places threads by observed cycle composition
	// (the paper's proposed runtime monitoring, §6).
	MonitoringPolicy = vm.MonitoringPolicy
	// CoreKind identifies one of the machine's core kinds: PPE, SPE or
	// VPU, the rows of internal/isa's fixed kind table.
	CoreKind = isa.CoreKind
	// Topology declares a machine's core mix as ordered groups.
	Topology = cell.Topology
	// CoreGroup is one run of identical cores in a Topology.
	CoreGroup = cell.CoreGroup
)

// Admission verdicts.
const (
	// Admitted means the job is predicted to start promptly.
	Admitted = vm.VerdictAdmitted
	// Delayed means the job was accepted but will queue first.
	Delayed = vm.VerdictDelayed
	// Shed means the job was refused at admission and never runs.
	Shed = vm.VerdictShed
)

// ErrDeadlock is the machine-level failure Job.Wait and System.Drain
// wrap when live threads remain but none is runnable; match it with
// errors.Is to distinguish a dead machine from a per-job trap (which
// Wait returns alongside a valid Result).
var ErrDeadlock = vm.ErrDeadlock

// ErrBadConfig is what NewSystem (and NewCluster, per shard) wraps for a
// Config no machine can run; the message names the field. Match it with
// errors.Is.
var ErrBadConfig = vm.ErrBadConfig

// Core kinds. PPE and SPE are the Cell's pair; VPU is the GPU-like wide
// vector core (cheap FP, brutal branches, SPE-style local store).
const (
	// PPE is the general-purpose, service-hosting PowerPC element.
	PPE = isa.PPE
	// SPE is the local-store accelerator element.
	SPE = isa.SPE
	// VPU is the GPU-like wide vector core.
	VPU = isa.VPU
)

// ParseCoreKind parses a kind name ("ppe", "spe", "vpu", any case).
func ParseCoreKind(s string) (CoreKind, error) { return isa.ParseCoreKind(s) }

// DefaultConfig returns a PS3-like machine: one PPE, six SPEs, 256 KB
// local stores with a 104 KB data cache and 88 KB code cache per SPE.
func DefaultConfig() Config { return vm.DefaultConfig() }

// PS3Topology returns the classic Cell shape: one PPE + numSPEs SPEs.
func PS3Topology(numSPEs int) Topology { return cell.PS3Topology(numSPEs) }

// ParseTopology parses a topology spec such as "ppe:1,spe:6" or
// "ppe:2,spe:2" — any mix with at least one PPE is a valid machine.
func ParseTopology(s string) (Topology, error) { return cell.ParseTopology(s) }

// ParseTopologyList parses a semicolon-separated list of topology
// specs, e.g. "ppe:1,spe:6;ppe:1,spe:4,vpu:2" (the herabench -topology
// flag syntax).
func ParseTopologyList(s string) ([]Topology, error) { return cell.ParseTopologyList(s) }

// Schedulers lists the legacy names Config.Scheduler accepts:
// "calendar", "migrate" and "steal". Every one boots the same
// scheduler, which steals within a kind and migrates across kinds when
// its cost gate approves (internal/sched, docs/ARCHITECTURE.md).
//
// Deprecated: a benchmark shim; ROADMAP item 11 deletes it along with
// Config.Scheduler.
func Schedulers() []string { return sched.Names() }

// Traces lists the registered arrival-trace names the open-loop serve
// driver accepts (the -trace flag of herabench and herajvm): "uniform",
// "poisson", "bursty" and "diurnal" — the discovery surface CLIs build
// their help text from.
func Traces() []string { return experiments.Traces() }

// DefaultMonitoringPolicy returns the runtime-monitoring placement
// policy (its thresholds are calibrated constants).
func DefaultMonitoringPolicy() *MonitoringPolicy { return vm.DefaultMonitoringPolicy() }

// NewSystem boots a Hera-JVM for the program.
func NewSystem(cfg Config, prog *Program) (*System, error) {
	v, err := vm.New(cfg, prog)
	if err != nil {
		return nil, err
	}
	return &System{VM: v}, nil
}

// The cluster layer: N shards behind a drain-routed dispatcher.
type (
	// Cluster is a booted shard fleet; Submit routes jobs, Drain runs
	// every shard to completion, Results returns the merged stream.
	Cluster = cluster.Cluster
	// ClusterConfig tunes the fleet: epoch stride, serial vs parallel
	// shard advancement, dispatcher-level deadline shedding, and an
	// optional context that aborts wedged epochs.
	ClusterConfig = cluster.Config
	// ShardConfig describes one shard: its VM config plus a builder
	// for its own program instance (shards share no mutable state, so
	// each must build its own copy).
	ShardConfig = cluster.ShardConfig
	// Shard is one booted member of a Cluster.
	Shard = cluster.Shard
	// ClusterJob is one dispatched (or dispatcher-shed) submission.
	ClusterJob = cluster.Job
	// ClusterResult is one entry of the merged result stream.
	ClusterResult = cluster.Result
)

// BootCluster boots a shard fleet: each ShardConfig's Build constructs
// that shard's program and its VM boots with the shard's own config —
// topologies and admission settings may differ per shard.
func BootCluster(cfg ClusterConfig, shards []ShardConfig) (*Cluster, error) {
	return cluster.Boot(cfg, shards)
}

// Benchmarks.
type (
	// Workload is one of the paper's three benchmarks.
	Workload = workloads.Spec
	// KernelWorkload is a data-parallel showcase workload with a
	// hera/Parallel.forRange entry class and a scalar twin running the
	// identical body sequentially (matmul, nbody, kmeans).
	KernelWorkload = workloads.KernelSpec
)

// Workloads returns the paper's three benchmarks (compress, mpegaudio,
// mandelbrot).
func Workloads() []Workload { return workloads.All() }

// WorkloadByName finds one benchmark by name. Kernel workload names
// resolve to their forRange variant, so serve traces and job mixes can
// interleave data-parallel launches with the paper workloads.
func WorkloadByName(name string) (Workload, error) { return workloads.ByName(name) }

// KernelWorkloads returns the data-parallel kernel workloads.
func KernelWorkloads() []KernelWorkload { return workloads.Kernels() }

// KernelWorkloadByName finds one kernel workload by name.
func KernelWorkloadByName(name string) (KernelWorkload, error) {
	return workloads.KernelByName(name)
}
