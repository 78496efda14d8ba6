package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	hera "herajvm"
	"herajvm/internal/cache"
	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/experiments"
	"herajvm/internal/isa"
	"herajvm/internal/jit"
	"herajvm/internal/kernel"
	"herajvm/internal/mem"
	"herajvm/internal/sched"
	"herajvm/internal/vm"
)

// Probes time each layer's exported functions in isolation, on inputs
// taken from the workloads' own programs and machine shapes. They run
// in the traced run only and report host nanoseconds per operation.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// perOp runs batches of op until budget has passed and returns host
// nanoseconds per operation. batch keeps the clock reads rare next to
// nanosecond-scale operations.
func perOp(budget time.Duration, batch int, op func()) float64 {
	start := time.Now()
	ops := 0
	for {
		for i := 0; i < batch; i++ {
			op()
		}
		ops += batch
		if el := time.Since(start); el >= budget {
			return float64(el.Nanoseconds()) / float64(ops)
		}
	}
}

// probeBox is the hardware the cache and bus probes run against: the
// serve workload's three-kind machine, first SPE. Each probe family
// boots its own and carries one clock through it, because the bus keeps
// reservations by timestamp and a clock that restarts at 0 would search
// behind another family's traffic.
type probeBox struct {
	m   *cell.Machine
	spe *cell.Core
}

func newProbeBox() (*probeBox, error) {
	cfg := hera.DefaultConfig().Machine
	cfg.Topology = experiments.DefaultServeTopology()
	m, err := cell.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	return &probeBox{m: m, spe: m.CoresOf(hera.SPE)[0]}, nil
}

// heapBase is where probe objects live in main memory: clear of the
// boot area, aligned like real allocations.
const heapBase = 0x100000

// runProbes returns every probe metric. budget is the host time given
// to each timed loop.
func runProbes(ctx context.Context, budget time.Duration, scale func(hera.Workload) int) (map[string]float64, error) {
	out := map[string]float64{}
	machineCfg := hera.DefaultConfig().Machine
	// The iterations before left up to a gigabyte of garbage; collect it
	// now so its sweep is not billed to the first probes.
	runtime.GC()

	out["mem.newmain_ns"] = perOp(budget, 1, func() {
		sink += uint64(mem.NewMain(machineCfg.MainMemory).Size())
	})
	var bootErr error
	out["cell.newmachine_ns"] = perOp(budget, 1, func() {
		m, err := cell.NewMachine(machineCfg)
		if err != nil {
			bootErr = err
			return
		}
		sink += uint64(m.NumCores())
	})
	if bootErr != nil {
		return nil, bootErr
	}

	// Six requesters on their own clocks, each asking again when its
	// last transfer completed: the four rings are contended as under
	// six SPEs.
	eib := cell.NewEIB(cell.DefaultEIBConfig())
	var clocks [6]cell.Clock
	next := 0
	out["cell.eib_transfer_ns"] = perOp(budget, 256, func() {
		c := &clocks[next%len(clocks)]
		*c = eib.Transfer(*c, 1024)
		next++
	})

	box, err := newProbeBox()
	if err != nil {
		return nil, err
	}
	var now cell.Clock
	out["cell.mfc_dma_ns_per_kb"] = perOp(budget, 64, func() {
		now = box.spe.MFC.DMA(now, cell.DMAGet, heapBase, 0, 1024)
	})

	if err := probeDataCache(out, budget); err != nil {
		return nil, err
	}
	if err := probeCodeCache(out, budget); err != nil {
		return nil, err
	}
	if err := probeJIT(out, budget, scale); err != nil {
		return nil, err
	}
	if err := probeSched(out, budget); err != nil {
		return nil, err
	}

	pools := []kernel.Pool{{Kind: hera.PPE, Cores: 1}, {Kind: hera.SPE, Cores: 4}, {Kind: hera.VPU, Cores: 2}}
	out["kernel.plan_ns"] = perOp(budget, 64, func() {
		plan, _ := kernel.PlanLaunch(0, 4096, pools)
		sink += uint64(len(plan.Chunks) + len(kernel.Tiles(64<<10, 1<<10)))
	})

	if err := probeAdmission(out, budget); err != nil {
		return nil, err
	}
	if err := probeHandoff(ctx, out, budget); err != nil {
		return nil, err
	}
	return out, probeExecutor(out, scale)
}

// probeDataCache times the software data cache's demand path (hit,
// miss, write), its staged path and its two coherence operations.
func probeDataCache(out map[string]float64, budget time.Duration) error {
	box, err := newProbeBox()
	if err != nil {
		return err
	}
	dc := cache.NewDataCache(cache.DefaultDataCacheConfig(), box.spe, 0)
	const objSize = 64
	var now cell.Clock
	var v uint64

	v, now = dc.ReadObject(now, heapBase, objSize, 16, 8)
	out["cache.data_read_hit_ns"] = perOp(budget, 256, func() {
		v, now = dc.ReadObject(now, heapBase, objSize, 16, 8)
		sink += v
	})
	out["cache.data_write_hit_ns"] = perOp(budget, 256, func() {
		now = dc.WriteObject(now, heapBase, objSize, 16, 8, 42)
	})

	// First touches of distinct objects across 8 MB: every read misses,
	// and the cache flushes itself whenever it fills.
	const region = 8 << 20
	var off uint32
	out["cache.data_read_miss_ns"] = perOp(budget, 64, func() {
		v, now = dc.ReadObject(now, heapBase+off, objSize, 16, 8)
		sink += v
		off = (off + 128) % region
	})

	// Staging 32 KB of fresh tiles; the purge that empties the cache
	// between operations drops clean entries only.
	const stageBytes = 32 << 10
	out["cache.data_stage_ns_per_kb"] = perOp(budget, 1, func() {
		now = dc.Purge(now)
		var staged uint32
		now, staged = dc.StageArray(now, heapBase, stageBytes, stageBytes)
		sink += uint64(staged)
	}) / (stageBytes >> 10)

	// The release and acquire a monitor pays: 16 dirty objects written
	// back (and, for the purge, dropped and touched again).
	now = dc.Purge(now)
	dirty := func() {
		for i := uint32(0); i < 16; i++ {
			now = dc.WriteObject(now, heapBase+i*128, objSize, 16, 8, uint64(i))
		}
	}
	out["cache.data_flush_ns"] = perOp(budget, 8, func() {
		dirty()
		now = dc.Flush(now)
	})
	out["cache.data_purge_ns"] = perOp(budget, 8, func() {
		dirty()
		now = dc.Purge(now)
	})
	return nil
}

// probeCodeCache times the method lookup of an invoke on a local-store
// core: resident, and not resident (1 KB methods until the cache purges
// itself).
func probeCodeCache(out map[string]float64, budget time.Duration) error {
	box, err := newProbeBox()
	if err != nil {
		return err
	}
	dcSize := cache.DefaultDataCacheConfig().Size
	cc := cache.NewCodeCache(cache.DefaultCodeCacheConfig(), box.spe, dcSize)
	const (
		tibAddr  = heapBase
		tibSize  = 64
		codeAddr = heapBase + 0x10000
		codeSize = 1 << 10
	)
	var now cell.Clock
	now, _ = cc.EnsureMethod(now, 1, tibAddr, tibSize, 1, codeAddr, codeSize)
	out["cache.code_ensure_hit_ns"] = perOp(budget, 256, func() {
		now, _ = cc.EnsureMethod(now, 1, tibAddr, tibSize, 1, codeAddr, codeSize)
	})
	method := 2
	out["cache.code_ensure_miss_ns"] = perOp(budget, 64, func() {
		now, _ = cc.EnsureMethod(now, 1, tibAddr, tibSize, method, codeAddr, codeSize)
		method++
	})
	return nil
}

// compilable lists the methods of the exec workload's programs that
// carry bytecode.
func compilable(scale func(hera.Workload) int) ([]*classfile.Method, error) {
	var methods []*classfile.Method
	for _, spec := range hera.Workloads() {
		prog, err := spec.Build(closedLoopThreads, scale(spec))
		if err != nil {
			return nil, err
		}
		if err := prog.Resolve(); err != nil {
			return nil, err
		}
		for _, c := range prog.Classes() {
			for _, m := range c.Methods {
				if !m.IsNative() && !m.IsAbstract() && m.Code != nil {
					methods = append(methods, m)
				}
			}
		}
	}
	return methods, nil
}

// probeJIT cold-compiles every method of the exec programs with a fresh
// compiler per pass, once per core kind.
func probeJIT(out map[string]float64, budget time.Duration, scale func(hera.Workload) int) error {
	methods, err := compilable(scale)
	if err != nil {
		return err
	}
	main := mem.NewMain(hera.DefaultConfig().Machine.MainMemory)
	codeBytes := hera.DefaultConfig().CodeBytes
	var compileErr error
	pass := func(kind isa.CoreKind) {
		c := jit.NewCompiler(kind, main, mem.NewRegion("code", 4096, codeBytes))
		c.InternString = func(string) (uint32, error) { return heapBase, nil }
		for _, m := range methods {
			cm, err := c.Compile(m)
			if err != nil {
				compileErr = err
				return
			}
			sink += uint64(cm.Size)
		}
	}
	for _, kind := range []isa.CoreKind{hera.PPE, hera.SPE, hera.VPU} {
		ns := perOp(budget, 1, func() { pass(kind) })
		out["jit.compile_ns_per_method."+strings.ToLower(kind.String())] = ns / float64(len(methods))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass(hera.SPE)
	runtime.ReadMemStats(&after)
	out["jit.compile_allocs_per_method"] = float64(after.Mallocs-before.Mallocs) / float64(len(methods))
	return compileErr
}

// probeSched times one enqueue plus one pick on each scheduler with 16
// tasks resident on the serve machine, and the pick that has to steal.
func probeSched(out map[string]float64, budget time.Duration) error {
	cfg := hera.DefaultConfig()
	opts := sched.Options{
		StealCycles:   cfg.StealCycles,
		MigrateCycles: cfg.MigrateCycles,
		CostOf:        func(sched.Task, *cell.Core) uint64 { return cfg.Quantum },
	}
	for _, name := range sched.Names() {
		box, err := newProbeBox()
		if err != nil {
			return err
		}
		cores := box.m.Cores()
		s, err := sched.New(name, cores, opts)
		if err != nil {
			return err
		}
		tasks := make([]int, 16)
		for i := range tasks {
			s.Enqueue(cores[i%len(cores)], &tasks[i], 0)
		}
		out["sched.enqueue_pick_ns."+name] = perOp(budget, 64, func() {
			core, task := s.PickNext()
			core.Now += cfg.Quantum // the task ran one quantum
			s.Enqueue(core, task, core.Now)
		})
	}

	// Every task lands on SPE 0; its three siblings must steal to run.
	box, err := newProbeBox()
	if err != nil {
		return err
	}
	cores := box.m.Cores()
	s, err := sched.New("steal", cores, opts)
	if err != nil {
		return err
	}
	spes := box.m.CoresOf(hera.SPE)
	tasks := make([]int, len(spes))
	out["sched.steal_ns"] = perOp(budget, 8, func() {
		for i := range tasks {
			s.Enqueue(spes[0], &tasks[i], spes[0].Now)
		}
		for range tasks {
			core, _ := s.PickNext()
			core.Now += cfg.Quantum
		}
	}) / float64(len(spes))
	return nil
}

// loadedServe boots the serve machine with the head of the serve script
// submitted and the first burst in flight.
func loadedServe() (*hera.System, *script, error) {
	sc, err := newScript(nil, 1, serveMix, 24, serveMeanGap)
	if err != nil {
		return nil, nil, err
	}
	prog, err := sc.buildMix(nil)
	if err != nil {
		return nil, nil, err
	}
	cfg := hera.DefaultConfig()
	cfg.Machine.Topology = experiments.DefaultServeTopology()
	cfg.Scheduler = "migrate"
	sys, err := hera.NewSystem(cfg, prog)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < 12; i++ {
		if _, _, err := sys.Submit(sc.request(i)); err != nil {
			return nil, nil, err
		}
	}
	return sys, sc, sys.RunUntil(sc.arrivals[4])
}

// probeAdmission times the completion probe the cluster dispatcher
// calls on every shard for every submission.
func probeAdmission(out map[string]float64, budget time.Duration) error {
	sys, sc, err := loadedServe()
	if err != nil {
		return err
	}
	req := sc.request(12)
	var probeErr error
	out["core.probe_ns"] = perOp(budget, 64, func() {
		completion, _, err := sys.Probe(req)
		if err != nil {
			probeErr = err
		}
		sink += completion
	})
	return probeErr
}

// probeHandoff times the four steps of an inter-shard hand-off on a
// compress job frozen mid-flight: freeze, encode, decode, rehydrate.
func probeHandoff(ctx context.Context, out map[string]float64, budget time.Duration) error {
	spec, err := hera.WorkloadByName("compress")
	if err != nil {
		return err
	}
	boot := func() (*hera.System, error) {
		prog, err := spec.Build(mixThreads, 1)
		if err != nil {
			return nil, err
		}
		return hera.NewSystem(hera.DefaultConfig(), prog)
	}
	req := hera.JobRequest{Class: spec.MainClass, Method: "main"}

	// A freeze consumes its job, so every timed freeze needs its own
	// machine run to the same mid-flight cycle; only the freeze is timed.
	const midFlight = 2_000_000
	var img *vm.JobImage
	var freezeNs int64
	freezes := 0
	for start := time.Now(); freezes < 1 || time.Since(start) < budget; freezes++ {
		sys, err := boot()
		if err != nil {
			return err
		}
		job, _, err := sys.Submit(req)
		if err != nil {
			return err
		}
		if err := sys.RunUntil(midFlight); err != nil {
			return err
		}
		t0 := time.Now()
		img, err = sys.Freeze(ctx, job)
		freezeNs += time.Since(t0).Nanoseconds()
		if err != nil {
			return fmt.Errorf("freezing compress at cycle %d: %w", midFlight, err)
		}
	}
	out["vm.freeze_ns"] = float64(freezeNs) / float64(freezes)

	var data []byte
	out["vm.encode_ns"] = perOp(budget, 1, func() { data = vm.EncodeJobImage(img) })
	out["vm.image_bytes"] = float64(len(data))
	var decodeErr error
	out["vm.decode_ns"] = perOp(budget, 1, func() {
		if _, err := vm.DecodeJobImage(data); err != nil {
			decodeErr = err
		}
	})
	if decodeErr != nil {
		return decodeErr
	}

	// Rehydrated copies are admitted but never run; a fresh target every
	// few copies keeps its heap from filling.
	const perTarget = 8
	var dst *hera.System
	var rehydrateNs int64
	copies := 0
	for start := time.Now(); copies < 1 || time.Since(start) < budget; copies++ {
		if copies%perTarget == 0 {
			if dst, err = boot(); err != nil {
				return err
			}
		}
		decoded, err := vm.DecodeJobImage(data)
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = dst.Rehydrate(decoded, midFlight, req)
		rehydrateNs += time.Since(t0).Nanoseconds()
		if err != nil {
			return err
		}
	}
	out["vm.rehydrate_ns"] = float64(rehydrateNs) / float64(copies)
	return nil
}

// probeExecutor runs the exec programs (at their default scale) with the
// superblock fast path on and off and reports host ns per retired
// instruction; the two passes must retire the same instructions.
func probeExecutor(out map[string]float64, scale func(hera.Workload) int) error {
	run := func(disable bool) (ns float64, instrs uint64, err error) {
		for _, spec := range hera.Workloads() {
			prog, err := spec.Build(closedLoopThreads, scale(spec))
			if err != nil {
				return 0, 0, err
			}
			cfg := hera.DefaultConfig()
			cfg.DisableSuperblocks = disable
			sys, err := hera.NewSystem(cfg, prog)
			if err != nil {
				return 0, 0, err
			}
			job, _, err := sys.Submit(hera.JobRequest{Class: spec.MainClass, Method: "main"})
			if err != nil {
				return 0, 0, err
			}
			t0 := time.Now()
			_, err = job.Wait()
			ns += float64(time.Since(t0).Nanoseconds())
			if err != nil {
				return 0, 0, err
			}
			for _, c := range sys.VM.Machine.Cores() {
				instrs += c.Stats.Instrs
			}
		}
		return ns, instrs, nil
	}
	fastNs, fastInstrs, err := run(false)
	if err != nil {
		return err
	}
	stepNs, stepInstrs, err := run(true)
	if err != nil {
		return err
	}
	if fastInstrs != stepInstrs {
		return fmt.Errorf("executor probe: fast path retired %d instructions, stepping %d", fastInstrs, stepInstrs)
	}
	out["vm.fast_ns_per_instr"] = fastNs / float64(fastInstrs)
	out["vm.step_ns_per_instr"] = stepNs / float64(stepInstrs)
	return nil
}
