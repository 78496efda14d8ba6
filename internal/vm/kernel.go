// Data-parallel kernel offload: the VM side of hera/Parallel.forRange.
//
// A launch intercepts the native at invoke time, prices the body on
// every kind the machine has (kernelPools: its static cost per
// iteration from that kind's compiler, and the staging of its tiles
// through the MFC/EIB model), plans the fan-out with internal/kernel
// (a water-fill that gives each pool the share evening out its
// predicted finish, contiguous chunking), and spawns one SPMD worker per core of every
// pool with a share, each pinned to its core for life — the
// scheduler's steal and migrate passes skip pinned tasks, so the
// barrier below is a join over workers that cannot wander. Every pool
// is offered only to a job that has the machine to itself: beside
// other admitted jobs the launch takes the one pool predicted to finish
// its body first, since a split that takes cores out from under queued
// jobs was measured to lose (ROADMAP item 17). The caller blocks in the
// void native until the last worker retires (finishThread decrements
// the barrier), then wakes through the same join-edge coherence
// protocol ordinary joins use: every retiring worker release-flushes
// its core's data cache, and the woken caller acquire-purges before
// running.
//
// Workers on local-store kinds stage their input tiles through the MFC
// before the first quantum (DataCache.StageArray): tile k+1's DMA is
// issued while tile k is consumed, so the worker stalls only for the
// leading tile while every staged byte still crosses the simulated EIB
// and bills DMATransfers/DMABytes/DataStaged — transfers are never
// free. Kernel workers inherit the launching thread's job, so
// admission, deadline accounting, per-job output and the freeze/hand-off
// refusal (ErrNotFreezable while kernels are in flight) stay honest.
package vm

import (
	"fmt"

	"herajvm/internal/cache"
	"herajvm/internal/cell"
	"herajvm/internal/classfile"
	"herajvm/internal/isa"
	"herajvm/internal/jit"
	"herajvm/internal/kernel"
	"herajvm/internal/mem"
)

// kernelLaunch is one in-flight forRange fan-out: the blocked caller
// and the count of workers still running. Workers link to it via
// Thread.kernel; the caller does not (it is parked in the native).
type kernelLaunch struct {
	id        int
	caller    *Thread
	remaining int
}

// launchKernel implements hera/Parallel.forRange(from, to, body): plan,
// fan out, block the caller at the barrier. An empty range is a no-op.
// body must understand run(int, int) — any hera/Kernel subclass does.
func (vm *VM) launchKernel(c *NativeCtx, from, to int32, body Ref) error {
	if body == 0 {
		return &TrapError{Kind: "NullPointerException", Detail: "Parallel.forRange on null body"}
	}
	cls := vm.classOf(body)
	if cls == nil {
		return &TrapError{Kind: "InternalError", Detail: "Parallel.forRange body is an array"}
	}
	runM := cls.MethodByName("run")
	if runM == nil || runM.IsStatic() || runM.ArgSlots() != 3 || runM.Ret != classfile.Void {
		return &TrapError{Kind: "InternalError", Detail: "no run(int,int) on " + cls.Name}
	}
	// Virtual dispatch: the most-derived override runs on the workers.
	runM = cls.VTable[runM.VSlot]
	if to <= from {
		return nil
	}

	// A job alone on the machine splits the launch over every kind it
	// has; one sharing it runs on the pool that finishes the body first.
	// The kernel semantics are identical on each kind.
	pools, err := vm.kernelPools(runM, body)
	if err != nil {
		return &TrapError{Kind: "InternalError", Detail: err.Error()}
	}
	if vm.pending != 1 {
		best, _ := kernel.ChoosePool(uint64(int64(to)-int64(from)), pools)
		pools = []kernel.Pool{best}
	}
	plan, ok := kernel.PlanLaunch(from, to, pools)
	if !ok || len(plan.Chunks) == 0 {
		return &TrapError{Kind: "InternalError", Detail: "no cores for kernel launch"}
	}

	k := &kernelLaunch{id: vm.kernelSeq, caller: c.Thread, remaining: len(plan.Chunks)}
	vm.kernelSeq++
	j := c.Thread.job
	j.kernels++
	j.kernelPool = plan.Kinds()
	j.Stats.KernelLaunches++
	j.Stats.KernelWorkers += uint64(len(plan.Chunks))

	// edgeKernel: the body's input arrays happen-before the workers' reads.
	vm.release(c.Core, edgeKernel)

	for i, chunk := range plan.Chunks {
		if err := vm.spawnKernelWorker(k, runM, body, chunk, c.Core.Now); err != nil {
			// A spawn failure (compiler full) traps the caller; workers
			// already spawned run to completion and find remaining > 0
			// forever — so back the count down to what actually started.
			k.remaining -= len(plan.Chunks) - i
			if k.remaining == 0 {
				j.kernels--
			}
			return &TrapError{Kind: "InternalError", Detail: err.Error()}
		}
	}

	// Park the caller at the barrier; kernelComplete wakes it.
	c.Thread.State = StateBlocked
	return nil
}

// kernelPools prices a launch of runM over body on every kind the
// machine has: one iteration is the body's static cost on the kind, its
// memory accesses all hits (jit.StaticCost), over one trip of its loop;
// and a worker on a local-store kind first stages body's arrays as
// stageKernelTiles does. Pricing compiles nothing, so the kinds the
// launch does not use see no change.
func (vm *VM) kernelPools(runM *classfile.Method, body Ref) ([]kernel.Pool, error) {
	pools := make([]kernel.Pool, 0, len(vm.presentKinds))
	for _, k := range vm.presentKinds {
		core := vm.kindCores[k][0]
		dc := vm.dcaches[core.Index]
		var hit uint64
		if dc != nil {
			hit = dc.HitCycles()
		} else {
			hit = uint64(core.Mem.L1.HitCycles())
		}
		cost, err := vm.compilers[k].StaticCost(runM, hit)
		if err != nil {
			return nil, err
		}
		p := kernel.Pool{Kind: k, Cores: len(vm.kindCores[k])}
		for _, c := range cost {
			p.Iter += c
		}
		p.Iter /= jit.LoopTrips
		if dc != nil {
			vm.stageArrays(dc, body, func(data mem.Addr, size, left uint32) uint32 {
				c, n := dc.StageCycles(size, left)
				p.Stage += c
				return n
			})
		}
		pools = append(pools, p)
	}
	return pools, nil
}

// spawnKernelWorker starts one pinned SPMD worker executing
// body.run(chunk.From, chunk.To) on core chunk.Worker of the
// chunk.Kind pool, bypassing the placement policy and the drain-based
// core pick: the plan already assigned at most one worker per core.
func (vm *VM) spawnKernelWorker(k *kernelLaunch, runM *classfile.Method, body Ref,
	chunk kernel.Chunk, readyAt cell.Clock) error {

	kind := chunk.Kind
	cm, compileCycles, err := vm.compileFor(kind, runM)
	if err != nil {
		return err
	}
	f := newFrame(cm)
	if len(f.Locals) < 3 {
		return fmt.Errorf("vm: kernel body %s has fewer than 3 locals", runM.Sig())
	}

	t := vm.newThread(k.caller.job, fmt.Sprintf("kernel-%d.%d", k.id, chunk.Worker))
	t.Kind = kind
	t.CoreID = vm.kindCores[kind][chunk.Worker].ID
	t.pinned = true
	t.kernel = k
	vm.acquireOnResume(t, edgeKernel)
	if kind.UsesLocalStore() {
		t.needEnsure = true
		t.needStage = true
	}
	if compileCycles > 0 {
		noteCompile(t)
	}
	vm.profileFrame(f)
	f.Locals[0] = uint64(body)
	f.Locals[1] = uint64(uint32(chunk.From))
	f.Locals[2] = uint64(uint32(chunk.To))
	t.pushFrame(f)
	t.ReadyAt = readyAt + compileCycles
	vm.enqueue(t)
	return nil
}

// kernelWorkerDone is finishThread's barrier hook: the last worker to
// retire completes the launch and wakes the blocked caller.
func (vm *VM) kernelWorkerDone(core *cell.Core, t *Thread) {
	k := t.kernel
	k.remaining--
	if k.remaining > 0 {
		return
	}
	k.caller.job.kernels--
	if k.caller.State == StateBlocked { // else detached or dead: nothing to wake
		vm.wake(k.caller, core.Now+joinWakeCycles, edgeKernel)
	}
}

// stageKernelTiles is the double-buffered scratchpad fill: before a
// worker's first quantum on a local-store core, every array the body
// object references is tiled through the MFC into the data cache
// (DataCache.StageArray), splitting half the cache between the arrays.
// The staged bytes are billed to the launching job's KernelDMABytes.
// Runs after the worker's acquire (runWhile's resumeAcquire step), so
// the purge cannot invalidate what was just staged.
func (vm *VM) stageKernelTiles(core *cell.Core, t *Thread) {
	dc := vm.dcaches[core.Index]
	if dc == nil || len(t.Frames) == 0 {
		return
	}
	body := Ref(t.Frames[0].Locals[0]) // spawnKernelWorker's receiver
	staged := vm.stageArrays(dc, body, func(data mem.Addr, size, left uint32) uint32 {
		var n uint32
		core.Now, n = dc.StageArray(core.Now, data, size, left)
		return n
	})
	t.job.Stats.KernelDMABytes += uint64(staged)
}

// stageArrays hands stage each array body's reference fields hold, in
// field order, with what is left of the staging budget — half of dc,
// split between the arrays — until it is spent; stage returns the bytes
// it staged, and stageArrays their total.
func (vm *VM) stageArrays(dc *cache.DataCache, body Ref, stage func(data mem.Addr, size, left uint32) uint32) uint32 {
	budget := dc.Config().Size / 2
	var staged uint32
	for c := vm.classOf(body); c != nil; c = c.Super {
		for _, fld := range c.Fields {
			if fld.Type != classfile.Ref || staged >= budget {
				continue
			}
			r := Ref(vm.Heap.FieldSlot(body, fld.Slot))
			if r == 0 {
				continue
			}
			id := vm.Heap.ClassIDOf(r)
			if !isArrayClassID(id) {
				continue
			}
			staged += stage(r+isa.HeaderBytes, vm.Heap.LengthOf(r)*arrayKindOf(id).Size(), budget-staged)
		}
	}
	return staged
}
