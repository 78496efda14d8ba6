package cell

import (
	"bytes"
	"strings"
	"testing"

	"herajvm/internal/isa"
	"herajvm/internal/mem"
)

// TestLocalStoreBackedOnDemand: a local-store core holds no host bytes
// until a DMA fills its store; from then on it holds one 4 KB page for
// each page a get has filled — a 64-byte fill maps one page, a fill
// that straddles a page boundary maps both — and a fill of a page it
// already holds maps nothing more.
func TestLocalStoreBackedOnDemand(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MainMemory = 1 << 20
	cfg.LocalStore = 200 << 10 // 50 pages, not a power of two
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Cores() {
		if n := held(c.LS); n != 0 {
			t.Fatalf("%s holds %d host bytes before any transfer", c, n)
		}
	}
	spe := m.CoreAt(isa.SPE, 0)
	if len(spe.LS) != 50 {
		t.Fatalf("a 200 KB store has %d pages, want 50", len(spe.LS))
	}
	m.Mem.WriteBytes(0x1000, bytes.Repeat([]byte("payload!"), 1<<10))
	var now Clock
	for _, s := range []struct {
		ls, n uint32
		pages int // pages held after the fill
	}{
		{0, 64, 1},
		{4<<10 - 64, 64, 1},    // ends exactly at the first page's end
		{4<<10 - 8, 16, 2},     // straddles into the second page
		{40 << 10, 1 << 10, 3}, // a page far from the others
		{43 << 10, 6 << 10, 5}, // 6 KB over three pages, one already held
		{200<<10 - 8, 8, 6},    // the store's last bytes
	} {
		now = spe.MFC.DMA(now, DMAGet, 0x1000, s.ls, s.n)
		if got := held(spe.LS); got != s.pages*mem.PageSize {
			t.Fatalf("DMA to [%#x,%#x): %d host bytes, want %d pages", s.ls, s.ls+s.n, got, s.pages)
		}
	}
	if got := string(spe.LS[0][:7]); got != "payload" {
		t.Fatalf("later fills disturbed the first page: %q", got)
	}
	if other := m.CoreAt(isa.SPE, 1); held(other.LS) != 0 {
		t.Errorf("a DMA on %s backed %s's local store too", spe, other)
	}
}

// TestDMAStraddlesPages: a get and a put that cross a 4 KB page
// boundary of the local store move every byte, in both directions.
func TestDMAStraddlesPages(t *testing.T) {
	main := mem.NewMain(1 << 20)
	ls := mem.NewPages(32 << 10)
	mfc := NewMFC(DefaultMFCConfig(), NewEIB(DefaultEIBConfig()), main, ls, 32<<10)
	src := make([]byte, 9000) // four local-store pages from lsAt below
	for i := range src {
		src[i] = byte(i*13 + i>>8)
	}
	main.WriteBytes(0x3000+5, src)
	reads, writes := main.Reads, main.Writes
	lsAt := uint32(4<<10 - 100)
	mfc.DMA(0, DMAGet, 0x3000+5, lsAt, uint32(len(src)))
	mfc.DMA(0, DMAPut, 0x40000+3, lsAt, uint32(len(src)))
	if main.Reads-reads != 1 || main.Writes-writes != 1 {
		t.Errorf("a get and a put counted %d reads and %d writes, want one each", main.Reads-reads, main.Writes-writes)
	}
	got := make([]byte, len(src))
	main.ReadBytes(0x40000+3, got)
	if !bytes.Equal(got, src) {
		t.Fatal("the round trip through the local store changed the bytes")
	}
	if n := held(ls); n != 4*mem.PageSize {
		t.Errorf("a 9000-byte fill from %#x holds %d bytes, want 4 pages", lsAt, n)
	}
}

// TestDMAPutFromUnwrittenPage: a put from local-store bytes no DMA
// ever filled writes zeros over main memory and maps no page.
func TestDMAPutFromUnwrittenPage(t *testing.T) {
	main := mem.NewMain(1 << 16)
	ls := mem.NewPages(16 << 10)
	mfc := NewMFC(DefaultMFCConfig(), NewEIB(DefaultEIBConfig()), main, ls, 16<<10)
	main.WriteBytes(0x2000, bytes.Repeat([]byte{0xee}, 256))
	mfc.DMA(0, DMAPut, 0x2000+16, 8<<10, 128)
	got := make([]byte, 256)
	main.ReadBytes(0x2000, got)
	want := bytes.Repeat([]byte{0xee}, 256)
	clear(want[16 : 16+128])
	if !bytes.Equal(got, want) {
		t.Fatalf("main memory after the put: % x", got)
	}
	if n := held(ls); n != 0 {
		t.Errorf("a put from an unwritten page mapped %d bytes", n)
	}
}

// TestDMAPastLocalStorePanics: the overrun check compares against the
// local-store size, not the pages held, and maps nothing.
func TestDMAPastLocalStorePanics(t *testing.T) {
	main := mem.NewMain(1 << 16)
	ls := mem.NewPages(32 << 10)
	mfc := NewMFC(DefaultMFCConfig(), NewEIB(DefaultEIBConfig()), main, ls, 32<<10)
	mfc.DMA(0, DMAGet, 0, 32<<10-128, 128) // the last bytes of the store are fine
	defer func() {
		r := recover()
		if s, _ := r.(string); !strings.Contains(s, "overruns local store") {
			t.Fatalf("DMA past the local store: recovered %v, want an overrun panic", r)
		}
		if n := held(ls); n != mem.PageSize {
			t.Errorf("the refused DMA left %d bytes mapped, want the one page", n)
		}
	}()
	mfc.DMA(0, DMAPut, 0, 32<<10-64, 128)
}

// TestDMAEdges: an empty transfer costs and maps nothing, Latency
// predicts a transfer on an idle bus, and a direction that is neither
// get nor put is refused.
func TestDMAEdges(t *testing.T) {
	main := mem.NewMain(1 << 16)
	ls := mem.NewPages(16 << 10)
	mfc := NewMFC(DefaultMFCConfig(), NewEIB(DefaultEIBConfig()), main, ls, 16<<10)
	if done := mfc.DMA(77, DMAGet, 0, 0, 0); done != 77 || mfc.Transfers != 0 || held(ls) != 0 {
		t.Errorf("an empty DMA finished at %d after %d transfers holding %d bytes", done, mfc.Transfers, held(ls))
	}
	if done, want := mfc.DMA(0, DMAGet, 0, 0, 512), mfc.Latency(512); done != want {
		t.Errorf("a DMA on an idle bus finished at %d, Latency says %d", done, want)
	}
	defer func() {
		if r := recover(); r != "cell: bad DMA direction" {
			t.Errorf("recovered %v, want the bad-direction panic", r)
		}
	}()
	mfc.DMA(0, DMAPut+1, 0, 0, 8)
}

// held returns the host bytes a page table holds: PageSize for each
// mapped page.
func held(p mem.Pages) int {
	n := 0
	for _, pg := range p {
		if pg != nil {
			n += mem.PageSize
		}
	}
	return n
}
