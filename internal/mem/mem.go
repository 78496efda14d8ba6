// Package mem models the Cell machine's main memory: a flat, byte
// addressed, little-endian store. Every heap object and static field in
// the simulated machine occupies real bytes here, so the data movement
// the experiments measure (SPE data-cache DMA, PPE cache fills)
// corresponds to actual byte traffic. TIBs and compiled code have
// address ranges here but no bytes: nothing reads them, because the
// executor runs the JIT's compiled form and dispatches through the
// VM's own class metadata, and the SPE code cache only bills the
// transfers it would make.
//
// The store is demand paged on the host through a two-level table: a
// fixed directory with one entry per 64 KB, each holding the 16 4 KB
// leaf pages beneath it. An entry and a leaf are allocated by the first
// write that lands under them, and an absent one reads as zero. Booting
// a machine therefore costs the directory, not the memory size, and a
// run pays host memory only for the 4 KB leaves it dirties — and not
// even those when a dead machine's pages are there to reuse: once a
// Main is unreachable its leaves go back, cleared, to a process-wide
// pool that every new page is drawn from first. Paging is invisible to
// the simulation — no simulated cost or statistic depends on which
// pages are mapped, or where they came from. A local store's backing
// is paged the same way, through a one-level Pages table (pages.go)
// whose pages go back to the pool with its owner, and its DMA copies
// page by page through the same loops.
//
// Address 0 is reserved as the null reference and is never handed out.
package mem

import (
	"encoding/binary"
	"fmt"
	"runtime"
)

// Addr is a simulated 32-bit physical address. The PS3's Cell exposes
// 256 MB of XDR memory; the default configuration here is smaller but the
// address arithmetic is identical.
type Addr = uint32

// Host page geometry. A 4 KB leaf is the grain NewLayout reserves and
// aligns regions at, so a cell that writes a few KB of statics and heap
// maps a few KB; a 64 KB directory entry keeps the directory of the
// default 64 MB memory at 8 KB (128 KB for 1 GB).
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1
	dirShift  = 16
	dirLeaves = 1 << (dirShift - PageShift)
)

// Page is one 4 KB host page of a paged store — a leaf of main memory,
// or one entry of a local store's Pages; nil means unmapped, which
// reads as zero. dirEntry is the leaves under one directory entry.
type (
	Page     = *[PageSize]byte
	dirEntry = *[dirLeaves]Page
)

// Main is the machine's main memory.
type Main struct {
	dir  []dirEntry
	size uint32

	// Reads and Writes count accessor calls (not bytes) for diagnostics.
	Reads, Writes uint64
}

// NewMain creates a main memory of the given size in bytes. No page is
// mapped until it is written, and the pages it maps go back to the page
// pool once the memory is unreachable.
func NewMain(size uint32) *Main {
	return &Main{dir: make([]dirEntry, (uint64(size)+1<<dirShift-1)>>dirShift), size: size}
}

// Size returns the memory size in bytes.
func (m *Main) Size() uint32 { return m.size }

func (m *Main) check(addr Addr, n uint32) {
	// Internal invariant, unreachable because every address the VM forms
	// is a heap object's header, field or bounds-checked element, a static
	// slot, a TIB or compiled code — all inside regions carved from this
	// memory — and guests (rehydrated images included) hold no other.
	if uint64(addr)+uint64(n) > uint64(m.size) {
		panic(fmt.Sprintf("mem: access [%#x,%#x) beyond end of memory (%#x)",
			addr, uint64(addr)+uint64(n), m.size))
	}
}

// leaf returns the page holding addr, or nil if it is unmapped. A
// caller that touches the page leaf or mapped returns calls
// runtime.KeepAlive(m) once it is done: m's pages go back to the pool as
// soon as m is unreachable, which can be before its method's last use of
// a page.
func (m *Main) leaf(addr Addr) Page {
	if d := m.dir[addr>>dirShift]; d != nil {
		return d[addr>>PageShift&(dirLeaves-1)]
	}
	return nil
}

// mapped returns the page holding addr, mapping it (and its directory
// entry) on first write. A new entry's leaves go back to the page pool
// once m is unreachable: the entry is private to m, so no page escapes,
// and a memory no one writes registers nothing.
func (m *Main) mapped(addr Addr) Page {
	d := m.dir[addr>>dirShift]
	if d == nil {
		d = new([dirLeaves]Page)
		m.dir[addr>>dirShift] = d
		onUnreachable(m, Pages.recycle, Pages(d[:]))
	}
	p := &d[addr>>PageShift&(dirLeaves-1)]
	if *p == nil {
		*p = newPage()
	}
	return *p
}

// copyOut, copyIn and zero move bytes page by page; they are the bulk
// accessors' bodies, the slow path of a scalar access that straddles a
// page boundary, and the main-memory side of a local store's DMA.
// Callers have bounds-checked the range.
func (m *Main) copyOut(addr Addr, dst []byte) {
	for len(dst) > 0 {
		off := addr & PageMask
		n := min(len(dst), int(PageSize-off))
		if p := m.leaf(addr); p != nil {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst, addr = dst[n:], addr+uint32(n)
	}
	runtime.KeepAlive(m)
}

func (m *Main) copyIn(addr Addr, src []byte) {
	for len(src) > 0 {
		off := addr & PageMask
		n := copy(m.mapped(addr)[off:], src)
		src, addr = src[n:], addr+uint32(n)
	}
	runtime.KeepAlive(m)
}

func (m *Main) zero(addr Addr, n uint32) {
	for n > 0 {
		off := addr & PageMask
		k := min(n, PageSize-off)
		if p := m.leaf(addr); p != nil {
			clear(p[off : off+k])
		}
		addr, n = addr+k, n-k
	}
	runtime.KeepAlive(m)
}

func (m *Main) readStraddle(addr Addr, n uint32) uint64 {
	var b [8]byte
	m.copyOut(addr, b[:n])
	return binary.LittleEndian.Uint64(b[:])
}

func (m *Main) writeStraddle(addr Addr, n uint32, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.copyIn(addr, b[:n])
}

// Read8 loads one byte.
func (m *Main) Read8(addr Addr) uint8 {
	m.check(addr, 1)
	m.Reads++
	if p := m.leaf(addr); p != nil {
		v := p[addr&PageMask]
		runtime.KeepAlive(m)
		return v
	}
	return 0
}

// Read16 loads a little-endian 16-bit value.
func (m *Main) Read16(addr Addr) uint16 {
	m.check(addr, 2)
	m.Reads++
	off := addr & PageMask
	if off > PageSize-2 {
		return uint16(m.readStraddle(addr, 2))
	}
	if p := m.leaf(addr); p != nil {
		v := binary.LittleEndian.Uint16(p[off:])
		runtime.KeepAlive(m)
		return v
	}
	return 0
}

// Read32 loads a little-endian 32-bit value.
func (m *Main) Read32(addr Addr) uint32 {
	m.check(addr, 4)
	m.Reads++
	off := addr & PageMask
	if off > PageSize-4 {
		return uint32(m.readStraddle(addr, 4))
	}
	if p := m.leaf(addr); p != nil {
		v := binary.LittleEndian.Uint32(p[off:])
		runtime.KeepAlive(m)
		return v
	}
	return 0
}

// Read64 loads a little-endian 64-bit value.
func (m *Main) Read64(addr Addr) uint64 {
	m.check(addr, 8)
	m.Reads++
	off := addr & PageMask
	if off > PageSize-8 {
		return m.readStraddle(addr, 8)
	}
	if p := m.leaf(addr); p != nil {
		v := binary.LittleEndian.Uint64(p[off:])
		runtime.KeepAlive(m)
		return v
	}
	return 0
}

// Write8 stores one byte.
func (m *Main) Write8(addr Addr, v uint8) {
	m.check(addr, 1)
	m.Writes++
	m.mapped(addr)[addr&PageMask] = v
	runtime.KeepAlive(m)
}

// Write16 stores a little-endian 16-bit value.
func (m *Main) Write16(addr Addr, v uint16) {
	m.check(addr, 2)
	m.Writes++
	if off := addr & PageMask; off > PageSize-2 {
		m.writeStraddle(addr, 2, uint64(v))
	} else {
		binary.LittleEndian.PutUint16(m.mapped(addr)[off:], v)
	}
	runtime.KeepAlive(m)
}

// Write32 stores a little-endian 32-bit value.
func (m *Main) Write32(addr Addr, v uint32) {
	m.check(addr, 4)
	m.Writes++
	if off := addr & PageMask; off > PageSize-4 {
		m.writeStraddle(addr, 4, uint64(v))
	} else {
		binary.LittleEndian.PutUint32(m.mapped(addr)[off:], v)
	}
	runtime.KeepAlive(m)
}

// Write64 stores a little-endian 64-bit value.
func (m *Main) Write64(addr Addr, v uint64) {
	m.check(addr, 8)
	m.Writes++
	if off := addr & PageMask; off > PageSize-8 {
		m.writeStraddle(addr, 8, v)
	} else {
		binary.LittleEndian.PutUint64(m.mapped(addr)[off:], v)
	}
	runtime.KeepAlive(m)
}

// ReadBytes copies len(dst) bytes starting at addr into dst.
func (m *Main) ReadBytes(addr Addr, dst []byte) {
	m.check(addr, uint32(len(dst)))
	m.Reads++
	m.copyOut(addr, dst)
}

// WriteBytes copies src into memory starting at addr.
func (m *Main) WriteBytes(addr Addr, src []byte) {
	m.check(addr, uint32(len(src)))
	m.Writes++
	m.copyIn(addr, src)
}

// Zero clears n bytes starting at addr. Unmapped pages already read as
// zero and stay unmapped.
func (m *Main) Zero(addr Addr, n uint32) {
	m.check(addr, n)
	m.Writes++
	m.zero(addr, n)
}
