package mem

import "fmt"

// Region is a contiguous slice of the main-memory address space with a
// bump allocator. The VM carves main memory into regions at boot: a boot
// area (statics, TOC/TIB metadata), a compiled-code area, and the Java
// heap (which layers a free list on top; see internal/vm).
type Region struct {
	Name  string
	Start Addr
	End   Addr // exclusive
	next  Addr
}

// NewRegion creates a region spanning [start, start+size).
func NewRegion(name string, start Addr, size uint32) *Region {
	return &Region{Name: name, Start: start, End: start + size, next: start}
}

// Alloc reserves n bytes aligned to align (a power of two) and returns
// the base address, or an error if the region is exhausted.
func (r *Region) Alloc(n, align uint32) (Addr, error) {
	if align == 0 {
		align = 1
	}
	base := (r.next + align - 1) &^ (align - 1)
	if uint64(base)+uint64(n) > uint64(r.End) {
		return 0, fmt.Errorf("mem: region %q exhausted: need %d bytes, %d free",
			r.Name, n, r.End-r.next)
	}
	r.next = base + n
	return base, nil
}

// Used returns the number of allocated bytes.
func (r *Region) Used() uint32 { return r.next - r.Start }

// Free returns the number of unallocated bytes.
func (r *Region) Free() uint32 { return r.End - r.next }

// Reset returns the region to empty. Used by tests.
func (r *Region) Reset() { r.next = r.Start }

// Contains reports whether addr falls inside the region.
func (r *Region) Contains(addr Addr) bool { return addr >= r.Start && addr < r.End }

// Layout carves an address space into named regions. It reserves the
// first page so address 0 (null) is never valid.
type Layout struct {
	size    uint32
	next    Addr
	regions []*Region
}

// NewLayout begins a layout over a memory of the given size, reserving
// the first reserve bytes (minimum 16, so null stays invalid).
func NewLayout(size uint32, reserve uint32) *Layout {
	if reserve < 16 {
		reserve = 16
	}
	return &Layout{size: size, next: reserve}
}

// Carve reserves size bytes as a new named region.
func (l *Layout) Carve(name string, size uint32) (*Region, error) {
	if uint64(l.next)+uint64(size) > uint64(l.size) {
		return nil, fmt.Errorf("mem: layout overflow carving %q (%d bytes, %d free)",
			name, size, l.size-l.next)
	}
	r := NewRegion(name, l.next, size)
	l.next += size
	l.regions = append(l.regions, r)
	return r, nil
}

// CarveRest turns all remaining space into a final region.
func (l *Layout) CarveRest(name string) *Region {
	r := NewRegion(name, l.next, l.size-l.next)
	l.next = l.size
	l.regions = append(l.regions, r)
	return r
}

// Regions returns the carved regions in address order.
func (l *Layout) Regions() []*Region { return l.regions }
