package vm

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"herajvm/internal/cache"
	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
	"herajvm/internal/jit"
	"herajvm/internal/mem"
	"herajvm/internal/profile"
	"herajvm/internal/sched"
)

// Config tunes the runtime system.
type Config struct {
	Machine   cell.Config
	DataCache cache.DataCacheConfig
	CodeCache cache.CodeCacheConfig

	// HeapBytes sizes the Java heap; CodeBytes sizes each target's
	// compiled-code region; BootBytes sizes the boot area (TIBs,
	// statics).
	HeapBytes uint32
	CodeBytes uint32
	BootBytes uint32

	// Quantum is the scheduling timeslice in cycles.
	Quantum uint64

	// Admission tunes the job-admission pipeline: the bounded pending
	// queue and deadline-based load shedding Submit's verdicts come
	// from. The zero value admits every submission.
	Admission AdmissionConfig

	// Scheduler selects the scheduling algorithm by name:
	// "calendar" (the default per-core event-calendar scheduler),
	// "steal" (the calendar plus same-kind work stealing) or "migrate"
	// (stealing plus cost-gated cross-kind migration). "" selects the
	// default. See internal/sched.
	Scheduler string

	// StealCycles is the penalty the "steal" and "migrate" schedulers
	// charge per steal: a stolen thread starts on the thief no earlier
	// than the thief's clock plus StealCycles (pulling the thread's
	// context across the bus). Ignored by the default scheduler.
	StealCycles uint64

	// MigrateCycles is the penalty the "migrate" scheduler charges per
	// cross-kind migration, on top of the jit-estimated recompilation
	// cost: packaging a thread's frames and moving them to a core with
	// a different ISA and memory model. Ignored by the other schedulers.
	MigrateCycles uint64

	// MigrateCooldownCycles is the migration-hysteresis window: after
	// any cross-kind migration, the "migrate" scheduler may not
	// re-migrate the thread until its core's clock has advanced past
	// the migration start plus this many cycles, so oscillating load
	// cannot ping-pong a thread between kinds. 0 disables the guard;
	// the default is ~2x MigrateCycles.
	MigrateCooldownCycles uint64

	// AdaptiveCaches enables the per-SPE controller that repartitions
	// local store between the data and code caches based on observed
	// miss rates (the paper's §4 future-work proposal). See
	// AdaptiveIntervalCycles.
	AdaptiveCaches         bool
	AdaptiveIntervalCycles uint64

	// DisableSuperblocks turns off the executor's superblock fast path,
	// forcing per-instruction dispatch everywhere. Simulated results are
	// byte-identical either way (the differential tests pin this); the
	// knob exists for that comparison and for isolating executor bugs.
	// Default false: superblocks are on.
	DisableSuperblocks bool

	// UnsafeNoCoherence disables the SPE software-cache purge/flush at
	// monitor and volatile operations. This breaks the Java Memory Model
	// (ablation A4 measures what the paper's coherence protocol costs);
	// checksums may be wrong with it enabled.
	UnsafeNoCoherence bool

	// Policy decides thread placement; nil means AnnotationPolicy.
	Policy Policy
}

// DefaultConfig returns a PS3-like machine with the paper's cache
// defaults.
func DefaultConfig() Config {
	return Config{
		Machine:               cell.DefaultConfig(),
		DataCache:             cache.DefaultDataCacheConfig(),
		CodeCache:             cache.DefaultCodeCacheConfig(),
		HeapBytes:             32 << 20,
		CodeBytes:             6 << 20,
		BootBytes:             1 << 20,
		Quantum:               4000,
		Scheduler:             sched.DefaultName,
		StealCycles:           400,
		MigrateCycles:         600,
		MigrateCooldownCycles: 1200,
		Policy:                nil,
	}
}

// ErrBadConfig is New's report — wrapped, naming the field — of a Config
// no machine can run. Match with errors.Is.
var ErrBadConfig = errors.New("vm: bad config")

// validate turns away the settings that would otherwise surface as a
// panic in a constructor (which keep theirs, as internal invariants), as
// a host panic on the first SPE array access, or as a run that never
// ends — hostile input gets an error, not a crash or a wedge.
func (cfg *Config) validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadConfig, fmt.Sprintf(format, args...))
	}
	if cfg.Quantum == 0 {
		// execute would return without charging a cycle and the thread be
		// re-queued at the same clock, forever.
		return bad("Quantum is 0")
	}
	if e := cfg.Machine.EIB; e.Channels < 1 || !(e.BytesPerCycle > 0) {
		return bad("Machine.EIB needs a channel and a positive bandwidth, has %d x %g B/cycle",
			e.Channels, e.BytesPerCycle)
	}
	// The software caches exist only on local-store cores, and every one
	// of those has the same local store and the same split.
	if !slices.ContainsFunc(cfg.Machine.Topology, func(g cell.CoreGroup) bool { return g.Kind.UsesLocalStore() }) {
		return nil
	}
	dc := cfg.DataCache
	if dc.ArrayBlock == 0 || dc.ArrayBlock&(dc.ArrayBlock-1) != 0 {
		return bad("DataCache.ArrayBlock %d is not a power of two", dc.ArrayBlock)
	}
	// The cache fills in units of a whole object up to MaxEntryBytes or
	// one array block, and must be able to hold one.
	if unit := max(dc.ArrayBlock, cache.MaxEntryBytes); dc.Size < unit {
		return bad("data cache of %d B cannot hold one %d B unit (DataCache.ArrayBlock, cache.MaxEntryBytes)",
			dc.Size, unit)
	}
	// The data cache sits at the bottom of the local store, the code
	// cache above it.
	if need := uint64(dc.Size) + uint64(cfg.CodeCache.Size); need > uint64(cfg.Machine.LocalStore) {
		return bad("DataCache.Size + CodeCache.Size (%d B) exceed Machine.LocalStore (%d B)",
			need, cfg.Machine.LocalStore)
	}
	return nil
}

// classMeta is per-class runtime metadata: where the class's TIB lives
// in main memory (the SPE code cache DMAs it), the class-lock object
// used by static synchronized methods, and which of the class's slots
// hold references (refs.go).
type classMeta struct {
	tibAddr mem.Addr
	tibSize uint32
	lockObj Ref
	refs    classRefs
}

// VM is a booted Hera-JVM instance bound to one simulated machine and
// one resolved program.
type VM struct {
	Cfg     Config
	Prog    *classfile.Program
	Machine *cell.Machine
	Heap    *Heap

	// cores and kindCores are the VM's private, stable iteration order
	// over the machine (the accessors return defensive copies; the
	// scheduler's hot path must not allocate — or be reordered — per
	// step).
	cores     []*cell.Core
	kindCores [isa.NumKinds][]*cell.Core

	// service is the core hosting the runtime services (GC, the syscall
	// mailbox): the first core, in topology order, of a service-hosting
	// kind. presentKinds lists the machine's kinds in table order —
	// the candidate set the placement policies choose from.
	service      *cell.Core
	presentKinds []isa.CoreKind
	// minFPScore/minMemScore are the cheapest FP and memory scores over
	// presentKinds: the normalizers the behaviour-aware task-cost
	// predictor prices each kind against (taskCost).
	minFPScore  float64
	minMemScore float64

	compilers [isa.NumKinds]*jit.Compiler
	// dcaches/ccaches hold each local-store core's software caches,
	// indexed by Core.Index (nil for hardware-cached cores); lsCores
	// lists the local-store core indices in topology order, the ordinal
	// AdaptiveResizes and CacheSplit take.
	dcaches []*cache.DataCache
	ccaches []*cache.CodeCache
	lsCores []int
	// edgeCrossings counts coherence.go's barriers performed, per edge.
	edgeCrossings [numEdges]uint64

	staticsBase mem.Addr
	classes     []classMeta
	classByID   []*classfile.Class

	interned map[string]Ref

	threads   []*Thread
	nextTID   int
	byJavaObj map[Ref]*Thread
	// kernelSeq numbers Parallel.forRange launches for worker naming.
	kernelSeq int
	scheduler sched.Scheduler
	liveCount int
	jobs      []*Job
	// pending counts jobs admitted but not yet completed — the
	// admission queue depth the MaxPending backstop bounds.
	pending int
	// curJob is the job whose thread the driving loop is currently
	// executing (or whose submission is being admitted); GC pauses are
	// billed to it. nil outside any job context.
	curJob *Job
	// jobServiceEWMA is a halving EWMA of completed jobs' observed
	// admission-to-completion cycles — the admission pipeline's
	// service-time estimate (0 until the first job completes). It
	// includes queueing delay, which deliberately biases the deadline
	// probe pessimistic under sustained load.
	jobServiceEWMA uint64

	monitors map[Ref]*monitor

	// pinned holds heap references kept alive across allocation bursts
	// whose object graphs are not yet reachable from ordinary roots —
	// Rehydrate links a transferred graph object by object, intern
	// and materialiseTrap build two-object values, and any allocation in
	// the middle may trigger a collection. Scanned as GC roots; a stack,
	// empty between bursts.
	pinned []Ref

	natives map[string]*Native

	policy  Policy
	Monitor *profile.Monitor

	// svcBusy serialises the dedicated service-core syscall thread.
	svcBusy cell.Clock

	// sbOff caches Cfg.DisableSuperblocks for the executor's hot loop.
	sbOff bool

	// adapt holds adaptive-cache controller state, indexed by
	// Core.Index (entries for hardware-cached cores are unused).
	adapt []adaptState

	stringCls    *classfile.Class
	threadCls    *classfile.Class
	throwableCls *classfile.Class

	ifaceMethods map[int]*classfile.Method

	// GCCount and GCCycles summarise collector activity.
	GCCount  uint64
	GCCycles uint64
	// GCUnattributedCycles is the slice of GCCycles billed to no job:
	// collections triggered by allocations outside any job context
	// (boot-time interning). Per-job JobStats.GCCycles plus this bucket
	// sum to GCCycles exactly.
	GCUnattributedCycles uint64
}

// New boots a VM: builds the machine, carves main memory, lays out
// statics and TIBs, registers the standard library natives and interns
// nothing yet (strings intern lazily at JIT time).
//
// The program must contain the stdlib classes (use Stdlib to install
// them before declaring application classes) and must NOT be resolved
// yet: New resolves it after the stdlib check.
func New(cfg Config, prog *classfile.Program) (*VM, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if !prog.Resolved() {
		if err := prog.Resolve(); err != nil {
			return nil, err
		}
	}
	machine, err := cell.NewMachine(cfg.Machine)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	vm := &VM{
		Cfg:          cfg,
		Prog:         prog,
		Machine:      machine,
		interned:     make(map[string]Ref),
		byJavaObj:    make(map[Ref]*Thread),
		monitors:     make(map[Ref]*monitor),
		natives:      make(map[string]*Native),
		Monitor:      profile.NewMonitor(),
		ifaceMethods: make(map[int]*classfile.Method),
		sbOff:        cfg.DisableSuperblocks,
	}

	// Carve main memory: the boot area, then one compiled-code region
	// per core kind the topology declares (in table order — "a method
	// will only be compiled for a particular core architecture if it is
	// to be executed by a thread running on that core type", §3.1, so a
	// kind the machine lacks gets neither region nor compiler; each
	// present kind gets one baseline JIT over its region), then the heap.
	// A region that does not fit — in main memory, or the program's
	// statics and TIBs in the boot area — is a config no machine runs.
	badLayout := func(err error) error { return fmt.Errorf("%w: %v", ErrBadConfig, err) }
	layout := mem.NewLayout(cfg.Machine.MainMemory, 4096)
	boot, err := layout.Carve("boot", cfg.BootBytes)
	if err != nil {
		return nil, badLayout(err)
	}
	for _, k := range isa.CoreKinds() {
		if !machine.HasKind(k) {
			continue
		}
		region, err := layout.Carve(strings.ToLower(k.String())+"-code", cfg.CodeBytes)
		if err != nil {
			return nil, badLayout(err)
		}
		vm.compilers[k] = jit.NewCompiler(k, machine.Mem, region)
		vm.compilers[k].InternString = vm.intern
	}
	heapStart, err := layout.Carve("heap", cfg.HeapBytes)
	if err != nil {
		return nil, badLayout(err)
	}
	vm.Heap = NewHeap(machine.Mem, heapStart.Start, heapStart.End)

	// Statics.
	nslots := prog.StaticSlots()
	if vm.staticsBase, err = boot.Alloc(uint32(nslots)*isa.SlotBytes+isa.SlotBytes, 16); err != nil {
		return nil, badLayout(err)
	}

	// TIBs: one block per class in the boot region, holding the vtable's
	// method IDs as real words (Figure 3's structures).
	vm.classes = make([]classMeta, len(prog.Classes()))
	vm.classByID = make([]*classfile.Class, len(prog.Classes()))
	for _, c := range prog.Classes() {
		vm.classByID[c.ID] = c
	}
	for _, c := range prog.Classes() {
		size := uint32(16 + 8*len(c.VTable))
		addr, err := boot.Alloc(size, 16)
		if err != nil {
			return nil, badLayout(err)
		}
		machine.Mem.Write32(addr, uint32(c.ID))
		machine.Mem.Write32(addr+4, uint32(len(c.VTable)))
		for i, m := range c.VTable {
			machine.Mem.Write64(addr+8+uint32(i)*8, uint64(m.ID))
		}
		vm.classes[c.ID] = classMeta{tibAddr: addr, tibSize: size, refs: classRefsOf(c)}
	}

	// Interface-method table.
	for _, c := range prog.Classes() {
		if !c.IsInterface {
			continue
		}
		for _, m := range c.Methods {
			if m.IfaceID >= 0 {
				vm.ifaceMethods[m.IfaceID] = m
			}
		}
	}

	// Stable core orderings, the service core and the kind candidate set.
	vm.cores = machine.Cores()
	for _, k := range isa.CoreKinds() {
		vm.kindCores[k] = machine.CoresOf(k)
		if machine.HasKind(k) {
			vm.presentKinds = append(vm.presentKinds, k)
		}
	}
	for i, k := range vm.presentKinds {
		if fp := k.FPScore(); i == 0 || fp < vm.minFPScore {
			vm.minFPScore = fp
		}
		if ms := k.MemScore(); i == 0 || ms < vm.minMemScore {
			vm.minMemScore = ms
		}
	}
	for _, c := range vm.cores {
		if c.Kind.HostsServices() {
			vm.service = c
			break
		}
	}
	if vm.service == nil { // topology validation guarantees one
		return nil, fmt.Errorf("vm: machine %s has no service-hosting core", machine.Describe())
	}

	// Software caches for every local-store core: data cache at the
	// bottom of the local store, code cache above it (the rest models
	// the resident runtime, stacks and the 2 KB TOC, §3.2.2).
	vm.dcaches = make([]*cache.DataCache, machine.NumCores())
	vm.ccaches = make([]*cache.CodeCache, machine.NumCores())
	for _, c := range vm.cores {
		if !c.Kind.UsesLocalStore() {
			continue
		}
		vm.dcaches[c.Index] = cache.NewDataCache(cfg.DataCache, c, 0)
		vm.ccaches[c.Index] = cache.NewCodeCache(cfg.CodeCache, c, cfg.DataCache.Size)
		vm.lsCores = append(vm.lsCores, c.Index)
	}

	// The scheduler: per-core event calendars behind the pluggable
	// sched.Scheduler interface, selected by Config.Scheduler. The
	// OnSteal/OnMigrate hooks keep the thread->core binding (and the
	// victim's cache publication, and cross-kind frame recompilation)
	// in the VM's hands; CostOf/RecompileCost feed the drain-time
	// placement estimate and the migrate scheduler's cost gate.
	vm.scheduler, err = sched.New(cfg.Scheduler, vm.cores, sched.Options{
		StealCycles:   cfg.StealCycles,
		MigrateCycles: cfg.MigrateCycles,
		OnSteal:       vm.onSteal,
		OnMigrate:     vm.onMigrate,
		CostOf:        vm.taskCost,
		RecompileCost: vm.recompileEstimate,
		Pinned:        func(task sched.Task) bool { return task.(*Thread).pinned },
	})
	if err != nil {
		return nil, err
	}
	vm.adapt = make([]adaptState, machine.NumCores())

	vm.policy = cfg.Policy
	if vm.policy == nil {
		vm.policy = &AnnotationPolicy{}
	}

	vm.stringCls = prog.Lookup("java/lang/String")
	vm.threadCls = prog.Lookup("java/lang/Thread")
	vm.throwableCls = prog.Lookup("java/lang/Throwable")
	registerBuiltins(vm)
	return vm, nil
}

// System is a booted VM as the public API hands it out (hera.NewSystem,
// a cluster shard's Sys). It adds nothing: every method is the VM's,
// and the machine, compilers and collector counters read as sys.VM.
type System struct{ *VM }

// Compiler returns the JIT for a core kind (nil when the machine has no
// core of that kind — compilers exist only for kinds the topology
// declares).
func (vm *VM) Compiler(k isa.CoreKind) *jit.Compiler {
	if int(k) >= len(vm.compilers) {
		return nil
	}
	return vm.compilers[k]
}

// coreFor maps (kind, id) to the cell core.
func (vm *VM) coreFor(kind isa.CoreKind, id int) *cell.Core {
	return vm.Machine.CoreAt(kind, id)
}

// intern returns (allocating on first use) the heap String for a Go
// string literal. Interned strings are GC roots.
func (vm *VM) intern(s string) (Ref, error) {
	if r, ok := vm.interned[s]; ok {
		return r, nil
	}
	if vm.stringCls == nil {
		return 0, fmt.Errorf("vm: program has no java/lang/String (missing Stdlib?)")
	}
	arr, err := vm.allocArray(isa.ElemChar, uint32(len(s)))
	if err != nil {
		return 0, err
	}
	for i, ch := range []byte(s) { // ASCII workloads; chars are bytes here
		vm.Machine.Mem.Write16(arr+isa.HeaderBytes+uint32(i)*2, uint16(ch))
	}
	// Until the String holds it the array is in this Go local alone, and
	// the String's allocation may collect.
	vm.pinned = append(vm.pinned, arr)
	obj, err := vm.allocObject(vm.stringCls)
	vm.pinned = vm.pinned[:len(vm.pinned)-1]
	if err != nil {
		return 0, err
	}
	vm.Heap.SetFieldSlot(obj, vm.stringCls.FieldByName("value").Slot, uint64(arr))
	vm.Heap.SetFieldSlot(obj, vm.stringCls.FieldByName("count").Slot, uint64(len(s)))
	vm.interned[s] = obj
	return obj, nil
}

// allocObject allocates a zeroed instance of c, running GC on pressure.
func (vm *VM) allocObject(c *classfile.Class) (Ref, error) {
	size := isa.ObjectBytes(c.InstanceSlots)
	return vm.allocRaw(size, c.ID, 0)
}

// allocArray allocates a zeroed array.
func (vm *VM) allocArray(k isa.ElemKind, n uint32) (Ref, error) {
	size := isa.ArrayBytes(k, n)
	// Array class IDs: encode kind in the flags word instead; class ID
	// for arrays is the marker kindArrayBase+kind.
	return vm.allocRaw(size, arrayClassID(k), n)
}

// arrayClassID encodes a primitive/ref array "class" as a negative-space
// ID above all real classes. GC and instanceof special-case them.
const arrayClassBase = 1 << 24

func arrayClassID(k isa.ElemKind) int { return arrayClassBase + int(k) }

func isArrayClassID(id int) bool { return id >= arrayClassBase }

func arrayKindOf(id int) isa.ElemKind { return isa.ElemKind(id - arrayClassBase) }

func (vm *VM) allocRaw(size uint32, classID int, length uint32) (Ref, error) {
	addr := vm.Heap.Alloc(size)
	if addr == 0 {
		vm.gc()
		addr = vm.Heap.Alloc(size)
		if addr == 0 {
			return 0, fmt.Errorf("vm: OutOfMemoryError allocating %d bytes", size)
		}
	}
	vm.Heap.WriteHeader(addr, classID, length)
	return addr, nil
}

// classOf returns the class of a (non-array) object, or nil for arrays.
func (vm *VM) classOf(obj Ref) *classfile.Class {
	id := vm.Heap.ClassIDOf(obj)
	if isArrayClassID(id) {
		return nil
	}
	return vm.classByID[id]
}

// objectSize returns the total allocation size of an object or array,
// from its header (used to size whole-object cache transfers).
func (vm *VM) objectSize(obj Ref) uint32 {
	id := vm.Heap.ClassIDOf(obj)
	if isArrayClassID(id) {
		return isa.ArrayBytes(arrayKindOf(id), vm.Heap.LengthOf(obj))
	}
	return isa.ObjectBytes(vm.classByID[id].InstanceSlots)
}
