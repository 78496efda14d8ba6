package mem

import (
	"testing"
	"testing/quick"
)

func TestReadWriteWidths(t *testing.T) {
	m := NewMain(1 << 16)
	m.Write8(0x100, 0xab)
	if got := m.Read8(0x100); got != 0xab {
		t.Errorf("Read8: got %#x", got)
	}
	m.Write16(0x200, 0xbeef)
	if got := m.Read16(0x200); got != 0xbeef {
		t.Errorf("Read16: got %#x", got)
	}
	m.Write32(0x300, 0xdeadbeef)
	if got := m.Read32(0x300); got != 0xdeadbeef {
		t.Errorf("Read32: got %#x", got)
	}
	m.Write64(0x400, 0x0123456789abcdef)
	if got := m.Read64(0x400); got != 0x0123456789abcdef {
		t.Errorf("Read64: got %#x", got)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := NewMain(64)
	m.Write32(16, 0x04030201)
	for i, want := range []uint8{1, 2, 3, 4} {
		if got := m.Read8(uint32(16 + i)); got != want {
			t.Errorf("byte %d: got %d want %d", i, got, want)
		}
	}
}

func TestReadWriteBytes(t *testing.T) {
	m := NewMain(1 << 12)
	src := []byte("hera-jvm block transfer")
	m.WriteBytes(128, src)
	dst := make([]byte, len(src))
	m.ReadBytes(128, dst)
	if string(dst) != string(src) {
		t.Errorf("round trip: got %q", dst)
	}
	m.Zero(128, uint32(len(src)))
	m.ReadBytes(128, dst)
	for i, b := range dst {
		if b != 0 {
			t.Errorf("Zero left byte %d = %d", i, b)
		}
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	m := NewMain(64)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-bounds access")
		}
	}()
	m.Read64(60) // crosses the end
}

func TestWord64RoundTripProperty(t *testing.T) {
	m := NewMain(1 << 16)
	f := func(off uint16, v uint64) bool {
		addr := uint32(off) &^ 7
		m.Write64(addr, v)
		return m.Read64(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegionAllocAlignment(t *testing.T) {
	r := NewRegion("code", 0x1000, 0x1000)
	a1, err1 := r.Alloc(10, 8)
	if err1 != nil || a1%8 != 0 {
		t.Errorf("misaligned: %#x", a1)
	}
	a2, err2 := r.Alloc(1, 16)
	if err2 != nil || a2%16 != 0 || a2 < a1+10 {
		t.Errorf("second alloc misplaced: %#x after %#x", a2, a1)
	}
	if !r.Contains(a1) || r.Contains(0x2000) {
		t.Error("Contains is wrong")
	}
}

func TestRegionExhaustion(t *testing.T) {
	r := NewRegion("tiny", 0, 32)
	if _, err := r.Alloc(33, 1); err == nil {
		t.Error("expected exhaustion error")
	}
	if _, err := r.Alloc(32, 1); err != nil || r.Free() != 0 {
		t.Errorf("Free: got %d want 0", r.Free())
	}
	if _, err := r.Alloc(1, 1); err == nil {
		t.Error("expected exhaustion error after fill")
	}
	r.Reset()
	if r.Used() != 0 {
		t.Errorf("Used after Reset: got %d", r.Used())
	}
}

func TestRegionAllocDisjointProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		r := NewRegion("p", 64, 1<<20)
		type span struct{ a, b uint32 }
		var spans []span
		for _, s := range sizes {
			n := uint32(s)%256 + 1
			a, err := r.Alloc(n, 8)
			if err != nil {
				return true // exhaustion is fine
			}
			for _, sp := range spans {
				if a < sp.b && sp.a < a+n {
					return false // overlap
				}
			}
			spans = append(spans, span{a, a + n})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLayoutCarving(t *testing.T) {
	l := NewLayout(1<<20, 4096)
	boot, err := l.Carve("boot", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if boot.Start != 4096 {
		t.Errorf("boot starts at %#x, want %#x", boot.Start, 4096)
	}
	code, err := l.Carve("code", 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	if code.Start != boot.End {
		t.Errorf("code starts at %#x, want %#x", code.Start, boot.End)
	}
	heap := l.CarveRest("heap")
	if heap.End != 1<<20 {
		t.Errorf("heap ends at %#x, want %#x", heap.End, 1<<20)
	}
	if _, err := l.Carve("more", 1); err == nil {
		t.Error("expected overflow after CarveRest")
	}
	if len(l.Regions()) != 3 {
		t.Errorf("got %d regions", len(l.Regions()))
	}
}

func TestLayoutNullReserved(t *testing.T) {
	l := NewLayout(1<<16, 0)
	r, err := l.Carve("first", 64)
	if err != nil {
		t.Fatal(err)
	}
	if r.Start == 0 {
		t.Error("layout handed out address 0 (null)")
	}
}
