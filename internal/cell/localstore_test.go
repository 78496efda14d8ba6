package cell

import (
	"strings"
	"testing"

	"herajvm/internal/isa"
	"herajvm/internal/mem"
)

// TestLocalStoreBackedOnDemand: a local-store core holds no host bytes
// until a DMA reaches into its store; the backing then doubles from
// 16 KB, keeps the bytes it held, and stops at the local-store size.
func TestLocalStoreBackedOnDemand(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MainMemory = 1 << 20
	cfg.LocalStore = 200 << 10 // not a power of two: the last doubling is capped
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Cores() {
		if c.LS != nil {
			t.Fatalf("%s holds %d host bytes before any transfer", c, cap(c.LS))
		}
	}
	spe := m.CoreAt(isa.SPE, 0)
	m.Mem.WriteBytes(0x1000, []byte("payload"))
	var now Clock
	for _, s := range []struct {
		ls, n uint32
		want  int
	}{
		{0, 7, 16 << 10},
		{16<<10 - 7, 7, 16 << 10}, // ends exactly at the backing's end
		{16 << 10, 1, 32 << 10},
		{40 << 10, 1 << 10, 64 << 10},
		{150 << 10, 1 << 10, 200 << 10},
		{200<<10 - 7, 7, 200 << 10},
	} {
		now = spe.MFC.DMA(now, DMAGet, 0x1000, s.ls, s.n)
		if len(spe.LS) != s.want {
			t.Fatalf("DMA to [%#x,%#x): backing %d bytes, want %d", s.ls, s.ls+s.n, len(spe.LS), s.want)
		}
		if string(spe.LS[:7]) != "payload" {
			t.Fatalf("growing the backing lost its bytes: %q", spe.LS[:7])
		}
	}
	if other := m.CoreAt(isa.SPE, 1); other.LS != nil {
		t.Errorf("a DMA on %s backed %s's local store too", spe, other)
	}
}

// TestDMAPastLocalStorePanics: the overrun check compares against the
// local-store size, not the backing, and grows nothing.
func TestDMAPastLocalStorePanics(t *testing.T) {
	main := mem.NewMain(1 << 16)
	var ls []byte
	mfc := NewMFC(DefaultMFCConfig(), NewEIB(DefaultEIBConfig()), main, &ls, 32<<10)
	mfc.DMA(0, DMAGet, 0, 32<<10-128, 128) // the last bytes of the store are fine
	defer func() {
		r := recover()
		if s, _ := r.(string); !strings.Contains(s, "overruns local store") {
			t.Fatalf("DMA past the local store: recovered %v, want an overrun panic", r)
		}
		if len(ls) != 32<<10 {
			t.Errorf("the refused DMA resized the backing to %d", len(ls))
		}
	}()
	mfc.DMA(0, DMAPut, 0, 32<<10-64, 128)
}
