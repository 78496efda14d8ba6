// Package mem models the Cell machine's main memory: a flat, byte
// addressed, little-endian store. Every heap object, static field, TIB
// and compiled-code block in the simulated machine occupies real bytes
// here, so all data movement measured by the experiments (SPE DMA
// transfers, PPE cache fills) corresponds to actual byte traffic.
//
// The store is demand paged on the host: Main is a fixed page table
// whose pages are allocated by the first write that lands on them, and
// an unmapped page reads as zero. Booting a machine therefore costs the
// page table, not the memory size, and a run pays host memory only for
// the pages it dirties. Paging is invisible to the simulation — no
// simulated cost or statistic depends on which pages are mapped.
//
// Address 0 is reserved as the null reference and is never handed out.
package mem

import (
	"encoding/binary"
	"fmt"
)

// Addr is a simulated 32-bit physical address. The PS3's Cell exposes
// 256 MB of XDR memory; the default configuration here is smaller but the
// address arithmetic is identical.
type Addr = uint32

// Host page geometry. 64 KB keeps the page table of a 1 GB memory at
// 128 KB while a short run still maps well under a megabyte.
const (
	pageShift = 16
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// page is one host page of simulated memory; nil means unmapped, which
// reads as zero.
type page = *[pageSize]byte

// Main is the machine's main memory.
type Main struct {
	pages []page
	size  uint32

	// Reads and Writes count accessor calls (not bytes) for diagnostics.
	Reads, Writes uint64
}

// NewMain creates a main memory of the given size in bytes. No page is
// mapped until it is written.
func NewMain(size uint32) *Main {
	return &Main{pages: make([]page, (uint64(size)+pageMask)>>pageShift), size: size}
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

// mapped returns the page holding addr, mapping it on first write.
func (m *Main) mapped(addr Addr) page {
	p := m.pages[addr>>pageShift]
	if p == nil {
		p = new([pageSize]byte)
		m.pages[addr>>pageShift] = p
	}
	return p
}

// copyOut and copyIn move bytes page by page; they are the bulk
// accessors' bodies and the slow path of a scalar access that straddles
// a page boundary. Callers have bounds-checked the range.
func (m *Main) copyOut(addr Addr, dst []byte) {
	for len(dst) > 0 {
		off := addr & pageMask
		n := min(len(dst), int(pageSize-off))
		if p := m.pages[addr>>pageShift]; p != nil {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst, addr = dst[n:], addr+uint32(n)
	}
}

func (m *Main) copyIn(addr Addr, src []byte) {
	for len(src) > 0 {
		off := addr & pageMask
		n := copy(m.mapped(addr)[off:], src)
		src, addr = src[n:], addr+uint32(n)
	}
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
	if p := m.pages[addr>>pageShift]; p != nil {
		return p[addr&pageMask]
	}
	return 0
}

// Read16 loads a little-endian 16-bit value.
func (m *Main) Read16(addr Addr) uint16 {
	m.check(addr, 2)
	m.Reads++
	off := addr & pageMask
	if off > pageSize-2 {
		return uint16(m.readStraddle(addr, 2))
	}
	if p := m.pages[addr>>pageShift]; p != nil {
		return binary.LittleEndian.Uint16(p[off:])
	}
	return 0
}

// Read32 loads a little-endian 32-bit value.
func (m *Main) Read32(addr Addr) uint32 {
	m.check(addr, 4)
	m.Reads++
	off := addr & pageMask
	if off > pageSize-4 {
		return uint32(m.readStraddle(addr, 4))
	}
	if p := m.pages[addr>>pageShift]; p != nil {
		return binary.LittleEndian.Uint32(p[off:])
	}
	return 0
}

// Read64 loads a little-endian 64-bit value.
func (m *Main) Read64(addr Addr) uint64 {
	m.check(addr, 8)
	m.Reads++
	off := addr & pageMask
	if off > pageSize-8 {
		return m.readStraddle(addr, 8)
	}
	if p := m.pages[addr>>pageShift]; p != nil {
		return binary.LittleEndian.Uint64(p[off:])
	}
	return 0
}

// Write8 stores one byte.
func (m *Main) Write8(addr Addr, v uint8) {
	m.check(addr, 1)
	m.Writes++
	m.mapped(addr)[addr&pageMask] = v
}

// Write16 stores a little-endian 16-bit value.
func (m *Main) Write16(addr Addr, v uint16) {
	m.check(addr, 2)
	m.Writes++
	if off := addr & pageMask; off > pageSize-2 {
		m.writeStraddle(addr, 2, uint64(v))
	} else {
		binary.LittleEndian.PutUint16(m.mapped(addr)[off:], v)
	}
}

// Write32 stores a little-endian 32-bit value.
func (m *Main) Write32(addr Addr, v uint32) {
	m.check(addr, 4)
	m.Writes++
	if off := addr & pageMask; off > pageSize-4 {
		m.writeStraddle(addr, 4, uint64(v))
	} else {
		binary.LittleEndian.PutUint32(m.mapped(addr)[off:], v)
	}
}

// Write64 stores a little-endian 64-bit value.
func (m *Main) Write64(addr Addr, v uint64) {
	m.check(addr, 8)
	m.Writes++
	if off := addr & pageMask; off > pageSize-8 {
		m.writeStraddle(addr, 8, v)
	} else {
		binary.LittleEndian.PutUint64(m.mapped(addr)[off:], v)
	}
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
	for n > 0 {
		off := addr & pageMask
		k := min(n, pageSize-off)
		if p := m.pages[addr>>pageShift]; p != nil {
			clear(p[off : off+k])
		}
		addr, n = addr+k, n-k
	}
}
