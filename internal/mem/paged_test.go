package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// model applies every operation to a paged Main and to a flat []byte
// reference — what Main was before it was paged — and compares what the
// two read back.
type model struct {
	t    testing.TB
	m    *Main
	flat []byte
}

func newModel(t testing.TB, size uint32) *model {
	return &model{t: t, m: NewMain(size), flat: make([]byte, size)}
}

// write stores the low width bytes of v at addr through the accessor of
// that width.
func (x *model) write(addr Addr, width uint32, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	copy(x.flat[addr:], b[:width])
	switch width {
	case 1:
		x.m.Write8(addr, uint8(v))
	case 2:
		x.m.Write16(addr, uint16(v))
	case 4:
		x.m.Write32(addr, uint32(v))
	case 8:
		x.m.Write64(addr, v)
	}
}

// read loads width bytes at addr through the accessor of that width and
// checks them against the reference.
func (x *model) read(addr Addr, width uint32) {
	x.t.Helper()
	var b [8]byte
	copy(b[:width], x.flat[addr:])
	want := binary.LittleEndian.Uint64(b[:])
	var got uint64
	switch width {
	case 1:
		got = uint64(x.m.Read8(addr))
	case 2:
		got = uint64(x.m.Read16(addr))
	case 4:
		got = uint64(x.m.Read32(addr))
	case 8:
		got = x.m.Read64(addr)
	}
	if got != want {
		x.t.Fatalf("Read%d(%#x) = %#x, flat reference has %#x", 8*width, addr, got, want)
	}
}

func (x *model) writeBytes(addr Addr, src []byte) {
	copy(x.flat[addr:], src)
	x.m.WriteBytes(addr, src)
}

func (x *model) zero(addr Addr, n uint32) {
	clear(x.flat[addr : addr+n])
	x.m.Zero(addr, n)
}

func (x *model) readBytes(addr Addr, n uint32) {
	x.t.Helper()
	got := bytes.Repeat([]byte{0xee}, int(n)) // stale bytes an unmapped read must overwrite
	x.m.ReadBytes(addr, got)
	if !bytes.Equal(got, x.flat[addr:addr+n]) {
		x.t.Fatalf("ReadBytes(%#x, %d) differs from the flat reference", addr, n)
	}
}

// mappedPages counts the host pages a Main has allocated.
func mappedPages(m *Main) int {
	n := 0
	for _, p := range m.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// TestStraddlingAccesses drives every accessor width across a page
// boundary at every split point, with each combination of mapped and
// unmapped pages on the two sides.
func TestStraddlingAccesses(t *testing.T) {
	const boundary = 2 * pageSize
	for _, premap := range []struct {
		name      string
		low, high bool
	}{
		{"unmapped|unmapped", false, false},
		{"mapped|unmapped", true, false},
		{"unmapped|mapped", false, true},
		{"mapped|mapped", true, true},
	} {
		for _, width := range []uint32{2, 4, 8} {
			for split := uint32(1); split < width; split++ {
				t.Run(fmt.Sprintf("%s/w%d/split%d", premap.name, width, split), func(t *testing.T) {
					x := newModel(t, 4*pageSize)
					if premap.low {
						x.write(boundary-64, 8, 0x1111111111111111)
					}
					if premap.high {
						x.write(boundary+64, 8, 0x2222222222222222)
					}
					addr := Addr(boundary - split)
					x.read(addr, width) // before any write: zero on both sides
					if got, want := mappedPages(x.m), b2i(premap.low)+b2i(premap.high); got != want {
						t.Fatalf("a straddling read mapped pages: %d mapped, want %d", got, want)
					}
					x.write(addr, width, 0x8877665544332211)
					x.read(addr, width)
					// The bytes around the access are untouched, and byte reads
					// see each half on its own page.
					for a := addr - 8; a < addr+width+8; a++ {
						x.read(a, 1)
					}
					if got := mappedPages(x.m); got != 2 {
						t.Fatalf("a straddling write left %d pages mapped, want 2", got)
					}
				})
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestBulkAcrossPages moves blocks that cover a partial page, two whole
// pages and another partial page, over mapped and unmapped memory.
func TestBulkAcrossPages(t *testing.T) {
	x := newModel(t, 8*pageSize)
	src := make([]byte, 3*pageSize+500)
	for i := range src {
		src[i] = byte(i*7 + 1)
	}
	start := Addr(pageSize - 100)
	x.readBytes(start, uint32(len(src))) // all unmapped: zeros, and maps nothing
	if got := mappedPages(x.m); got != 0 {
		t.Fatalf("ReadBytes mapped %d pages", got)
	}
	x.writeBytes(start, src)
	if got := mappedPages(x.m); got != 5 {
		t.Fatalf("WriteBytes over 5 pages mapped %d", got)
	}
	x.readBytes(start, uint32(len(src)))
	x.readBytes(0, 8*pageSize) // mapped and unmapped pages interleaved
	x.zero(start+50, 2*pageSize)
	x.readBytes(0, 8*pageSize)
	x.read(start+49, 1)
	x.read(start+50+2*pageSize, 1)
}

// TestZeroUnmappedAllocatesNothing pins the property the boot path
// relies on: the heap zeroes every allocation, and zeroing memory no
// one has written must cost neither a page nor an allocation.
func TestZeroUnmappedAllocatesNothing(t *testing.T) {
	m := NewMain(64 << 20)
	allocs := testing.AllocsPerRun(10, func() {
		m.Zero(16, 64<<20-16)
		m.Zero(3*pageSize-8, 16)
	})
	if allocs != 0 || mappedPages(m) != 0 {
		t.Fatalf("Zero over unmapped memory: %v allocs, %d pages mapped", allocs, mappedPages(m))
	}
	if got := m.Read64(3*pageSize - 4); got != 0 {
		t.Fatalf("unmapped memory reads %#x", got)
	}
}

// TestSizeNotPageMultiple checks the partial last page is addressable
// to its final byte and no further.
func TestSizeNotPageMultiple(t *testing.T) {
	const size = 2*pageSize + 100
	x := newModel(t, size)
	if x.m.Size() != size {
		t.Fatalf("Size() = %d, want %d", x.m.Size(), size)
	}
	x.write(size-8, 8, 0xfeedfacecafebeef)
	x.read(size-8, 8)
	x.write(size-1, 1, 0x5a)
	x.readBytes(pageSize+1, pageSize+99)
	x.zero(size-4, 4)
	x.read(size-8, 8)
	for name, access := range map[string]func(){
		"Read64":     func() { x.m.Read64(size - 7) },
		"Write8":     func() { x.m.Write8(size, 1) },
		"Zero":       func() { x.m.Zero(size-1, 2) },
		"ReadBytes":  func() { x.m.ReadBytes(size-1, make([]byte, 2)) },
		"WriteBytes": func() { x.m.WriteBytes(pageSize, make([]byte, pageSize+101)) },
		"wrap":       func() { x.m.Read32(0xffffffff) },
	} {
		if mustPanic(access) == "" {
			t.Errorf("%s beyond the end did not panic", name)
		}
	}
}

func mustPanic(f func()) (msg string) {
	defer func() { msg, _ = recover().(string) }()
	f()
	return ""
}

// TestOutOfBoundsMessage pins the panic text, which names the access
// and the memory size exactly as the flat store's did.
func TestOutOfBoundsMessage(t *testing.T) {
	m := NewMain(64)
	const want = "mem: access [0x3c,0x44) beyond end of memory (0x40)"
	if got := mustPanic(func() { m.Read64(60) }); got != want {
		t.Errorf("panic %q, want %q", got, want)
	}
}

// fuzzSize is four pages and a partial one: small enough to compare
// whole, large enough that bulk ops span three pages.
const fuzzSize = 4*pageSize + 1000

// FuzzMainVsFlat decodes its input as a sequence of 12-byte operations,
// applies each to a paged Main and to a flat reference, and requires
// every read, and the whole memory at the end, to agree. Addresses are
// biased towards page boundaries, where the paged store has its only
// interesting code. The seed corpus is testdata/fuzz/FuzzMainVsFlat.
func FuzzMainVsFlat(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		x := newModel(t, fuzzSize)
		for ; len(data) >= 12; data = data[12:] {
			a := uint32(binary.LittleEndian.Uint16(data[2:]))
			addr := a * 5 % fuzzSize
			if data[1]&1 == 0 {
				// Within 8 bytes either side of a page boundary.
				addr = (uint32(data[1]>>1)%4+1)*pageSize - 8 + a%16
			}
			v := binary.LittleEndian.Uint64(data[4:])
			code := data[0] % 11
			if code < 8 {
				width := uint32(1) << (code % 4)
				if addr+width > fuzzSize {
					continue
				}
				if code < 4 {
					x.read(addr, width)
				} else {
					x.write(addr, width, v)
				}
				continue
			}
			n := min(uint32(v&0xffff)*3, fuzzSize-addr)
			switch code {
			case 8:
				src := make([]byte, n)
				for i := range src {
					src[i] = byte(v>>16) + byte(i)
				}
				x.writeBytes(addr, src)
			case 9:
				x.readBytes(addr, n)
			case 10:
				x.zero(addr, n)
			}
		}
		x.readBytes(0, fuzzSize)
	})
}

// BenchmarkMainMemory measures simulated memory accessor throughput:
// aligned accesses inside a host page, and the slow path of an access
// that straddles two pages (4 bytes before each 64 KB boundary).
func BenchmarkMainMemory(b *testing.B) {
	b.Run("aligned", func(b *testing.B) {
		m := NewMain(1 << 20)
		for i := 0; i < b.N; i++ {
			m.Write64(uint32(i)&0xffff8, uint64(i))
			_ = m.Read64(uint32(i) & 0xffff8)
		}
	})
	b.Run("straddle", func(b *testing.B) {
		m := NewMain(1 << 20)
		for i := 0; i < b.N; i++ {
			addr := (uint32(i)&7+1)<<16 - 4
			m.Write64(addr, uint64(i))
			_ = m.Read64(addr)
		}
	})
}
