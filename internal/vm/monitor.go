package vm

import (
	"fmt"

	"herajvm/internal/cell"
)

// monitor is the VM-side state of one object's lock: the owner and
// recursion count mirror the header lock word (owner<<8 | count); the
// queues hold blocked and waiting threads.
type monitor struct {
	owner   *Thread
	count   int
	blocked []*Thread // waiting to acquire
	waiters []*Thread // in Object.wait
}

func (vm *VM) monitorOf(obj Ref) *monitor {
	m := vm.monitors[obj]
	if m == nil {
		m = &monitor{}
		vm.monitors[obj] = m
	}
	return m
}

func (vm *VM) writeLockWord(obj Ref, m *monitor) {
	var w uint32
	if m.owner != nil {
		w = uint32(m.owner.ID+1)<<8 | uint32(m.count&0xff)
	}
	vm.Heap.SetLockWord(obj, w)
}

// monitorEnter attempts to acquire obj's monitor for t on core. It
// returns false when the thread blocked (the caller must stop executing
// it); wakeBlocked grants it the monitor later. Entering acquires
// edgeMonitor (§3.2.1).
func (vm *VM) monitorEnter(core *cell.Core, t *Thread, obj Ref) bool {
	m := vm.monitorOf(obj)
	switch {
	case m.owner == nil:
		m.owner = t
		m.count = 1
	case m.owner == t:
		m.count++
	default:
		t.State = StateBlocked
		m.blocked = append(m.blocked, t)
		return false
	}
	vm.writeLockWord(obj, m)
	vm.acquire(core, edgeMonitor)
	return true
}

// monitorExit releases obj's monitor, and edgeMonitor before the
// release becomes visible (§3.2.1).
func (vm *VM) monitorExit(core *cell.Core, t *Thread, obj Ref) error {
	m := vm.monitorOf(obj)
	if m.owner != t {
		return &TrapError{Kind: "IllegalMonitorStateException",
			Detail: fmt.Sprintf("thread %d does not own monitor %#x", t.ID, obj)}
	}
	vm.release(core, edgeMonitor)
	m.count--
	if m.count > 0 {
		vm.writeLockWord(obj, m)
		return nil
	}
	m.owner = nil
	vm.writeLockWord(obj, m)
	vm.wakeBlocked(core, m)
	return nil
}

// wakeBlocked hands the monitor to the first blocked thread, if any.
func (vm *VM) wakeBlocked(core *cell.Core, m *monitor) {
	if len(m.blocked) == 0 {
		return
	}
	next := m.blocked[0]
	m.blocked = m.blocked[1:]
	m.owner = next
	m.count = 1
	if next.waitCount > 1 { // returning from Object.wait: restore recursion
		m.count = next.waitCount
	}
	next.waitCount = 0
	vm.wake(next, core.Now+60, edgeMonitor) // handoff latency
}

// monitorWait implements Object.wait(): release fully, park on the wait
// set. The thread must own the monitor.
func (vm *VM) monitorWait(core *cell.Core, t *Thread, obj Ref) error {
	m := vm.monitorOf(obj)
	if m.owner != t {
		return &TrapError{Kind: "IllegalMonitorStateException", Detail: "wait without lock"}
	}
	vm.release(core, edgeMonitor)
	t.waitCount = m.count
	m.owner = nil
	m.count = 0
	vm.writeLockWord(obj, m)
	m.waiters = append(m.waiters, t)
	t.State = StateBlocked
	vm.wakeBlocked(core, m)
	return nil
}

// monitorNotify moves up to n waiters to the blocked queue (they must
// reacquire before continuing, restoring their recursion count).
func (vm *VM) monitorNotify(core *cell.Core, t *Thread, obj Ref, n int) error {
	m := vm.monitorOf(obj)
	if m.owner != t {
		return &TrapError{Kind: "IllegalMonitorStateException", Detail: "notify without lock"}
	}
	for n != 0 && len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		m.blocked = append(m.blocked, w)
		n--
	}
	return nil
}
