package mem

import "sync"

// Pages is a one-level table of 4 KB host pages: the host backing of a
// store small enough that one load finds any byte's page — a core's
// 256 KB local store is 64 entries. Like main memory, a page is mapped
// by the first write that lands on it and reads as zero until then, so
// a store holds host bytes only for the pages written to it. Main
// memory keeps its two-level directory: at one level, booting a 64 MB
// memory would allocate a 128 KB table.
type Pages []Page

// NewPages returns a table for a store of size bytes, with no page
// mapped.
func NewPages(size uint32) Pages {
	return make(Pages, (uint64(size)+PageMask)>>PageShift)
}

// Map returns the page holding addr, mapping it on first write.
func (p Pages) Map(addr uint32) Page {
	pg := &p[addr>>PageShift]
	if *pg == nil {
		*pg = newPage()
	}
	return *pg
}

// pool holds the cleared pages of tables whose owners are gone, for the
// next table that maps one. The garbage collector bounds it: sync.Pool
// drops what two cycles leave unused.
var pool sync.Pool

// newPage is the one place a page is made, for main memory's leaves and
// a local store's pages alike: a recycled page when the pool has one, a
// new one otherwise. Either reads as zero.
func newPage() Page {
	if pg, ok := pool.Get().(Page); ok {
		return pg
	}
	return new([PageSize]byte)
}

// recycle clears each mapped page of p and returns it to the pool. It
// runs once p's owner is unreachable, so nothing reads p again.
func (p Pages) recycle() {
	for _, pg := range p {
		if pg != nil {
			clear(pg[:])
			pool.Put(pg)
		}
	}
}

// OwnPages returns p's pages to the pool once owner is unreachable.
// owner must be the object through which every reader reaches p (a
// local store's MFC, which its core holds), and p may have one owner:
// a page is kept only in the table that mapped it, so a table handed
// over twice would hand its pages out twice.
func OwnPages[T any](owner *T, p Pages) { onUnreachable(owner, Pages.recycle, p) }

// ReadPages copies n bytes of memory from addr into dst at at, page by
// page, mapping each page of dst it fills. Like ReadBytes it counts one
// read; it is a DMA get into a local store.
func (m *Main) ReadPages(addr Addr, dst Pages, at, n uint32) {
	m.check(addr, n)
	m.Reads++
	for n > 0 {
		off := at & PageMask
		k := min(n, PageSize-off)
		m.copyOut(addr, dst.Map(at)[off:off+k])
		addr, at, n = addr+k, at+k, n-k
	}
}

// WritePages copies n bytes of src from at to memory at addr, page by
// page. A page of src never written reads as zero, so its span of
// memory is zeroed and nothing is mapped for it. Like WriteBytes it
// counts one write; it is a DMA put out of a local store.
func (m *Main) WritePages(addr Addr, src Pages, at, n uint32) {
	m.check(addr, n)
	m.Writes++
	for n > 0 {
		off := at & PageMask
		k := min(n, PageSize-off)
		if pg := src[at>>PageShift]; pg != nil {
			m.copyIn(addr, pg[off:off+k])
		} else {
			m.zero(addr, k)
		}
		addr, at, n = addr+k, at+k, n-k
	}
}
