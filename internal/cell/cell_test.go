package cell

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"herajvm/internal/isa"
	"herajvm/internal/mem"
)

func TestEIBSingleTransfer(t *testing.T) {
	e := NewEIB(EIBConfig{Channels: 1, BytesPerCycle: 8, ArbCycles: 20})
	done := e.Transfer(100, 1024)
	want := Clock(100 + 20 + 1024/8)
	if done != want {
		t.Errorf("completion: got %d want %d", done, want)
	}
	if e.Transfers != 1 || e.Bytes != 1024 {
		t.Errorf("stats: %d transfers %d bytes", e.Transfers, e.Bytes)
	}
}

func TestEIBQueuesWhenBusy(t *testing.T) {
	e := NewEIB(EIBConfig{Channels: 1, BytesPerCycle: 8, ArbCycles: 0})
	first := e.Transfer(0, 800) // busy until 100
	if first != 100 {
		t.Fatalf("first done at %d", first)
	}
	second := e.Transfer(10, 80) // must wait for the channel
	if second != 110 {
		t.Errorf("second done at %d, want 110 (queued behind first)", second)
	}
	if e.WaitCycles != 90 {
		t.Errorf("wait cycles: got %d want 90", e.WaitCycles)
	}
}

func TestEIBParallelChannels(t *testing.T) {
	e := NewEIB(EIBConfig{Channels: 2, BytesPerCycle: 8, ArbCycles: 0})
	a := e.Transfer(0, 800)
	b := e.Transfer(0, 800)
	if a != 100 || b != 100 {
		t.Errorf("two channels should run in parallel: %d, %d", a, b)
	}
	c := e.Transfer(0, 800) // both busy now
	if c != 200 {
		t.Errorf("third transfer should queue: done at %d want 200", c)
	}
}

func TestEIBCompletionMonotonicProperty(t *testing.T) {
	// For a fixed request time, a transfer issued later (or equal) on the
	// same bus never completes before one issued earlier.
	f := func(sizes []uint16) bool {
		e := NewEIB(DefaultEIBConfig())
		now := Clock(0)
		var last Clock
		for _, s := range sizes {
			done := e.Transfer(now, uint32(s)+1)
			if done < now {
				return false
			}
			if done < last && false { // channels may finish out of order; only per-request sanity
				return false
			}
			last = done
			now += 5
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMFCMovesRealBytes(t *testing.T) {
	main := mem.NewMain(1 << 16)
	ls := mem.NewPages(4096)
	e := NewEIB(DefaultEIBConfig())
	mfc := NewMFC(DefaultMFCConfig(), e, main, ls, 4096)

	main.WriteBytes(0x1000, []byte("cached object payload"))
	done := mfc.DMA(0, DMAGet, 0x1000, 64, 21)
	if done == 0 {
		t.Fatal("DMA returned zero completion time")
	}
	if string(ls[0][64:64+21]) != "cached object payload" {
		t.Errorf("local store contents wrong: %q", ls[0][64:64+21])
	}

	copy(ls[0][128:], "dirty write-back")
	mfc.DMA(done, DMAPut, 0x2000, 128, 16)
	buf := make([]byte, 16)
	main.ReadBytes(0x2000, buf)
	if string(buf) != "dirty write-back" {
		t.Errorf("main memory contents wrong: %q", buf)
	}
}

func TestMFCSmallTransferRoundedUp(t *testing.T) {
	main := mem.NewMain(1 << 16)
	e := NewEIB(EIBConfig{Channels: 1, BytesPerCycle: 8, ArbCycles: 0})
	mfc := NewMFC(MFCConfig{SetupCycles: 40, MinTransfer: 128}, e, main, mem.NewPages(1024), 1024)
	done := mfc.DMA(0, DMAGet, 0, 0, 4)
	// setup 40 + 128/8 = 56: small transfers pay near-fixed cost, the
	// "much less efficient" small-transfer behaviour of §2.
	if done != 56 {
		t.Errorf("small DMA completion: got %d want 56", done)
	}
	if mfc.Bytes != 128 {
		t.Errorf("carried bytes: got %d want 128 (rounded)", mfc.Bytes)
	}
}

func TestHWCacheHitMiss(t *testing.T) {
	c := NewHWCache(HWCacheConfig{SizeBytes: 1 << 12, LineBytes: 64, Ways: 2, HitCycles: 4})
	if c.Access(0x100) {
		t.Error("cold access should miss")
	}
	if !c.Access(0x100) || !c.Access(0x13f&^63) {
		t.Error("warm access should hit")
	}
}

func TestHWCacheLRUEviction(t *testing.T) {
	// 2 ways, 64-byte lines, 4 sets -> addresses 0, 256, 512 map to set 0.
	c := NewHWCache(HWCacheConfig{SizeBytes: 512, LineBytes: 64, Ways: 2, HitCycles: 1})
	c.Access(0)
	c.Access(256)
	c.Access(0)   // 0 becomes MRU
	c.Access(512) // evicts 256 (LRU)
	if !c.Access(0) {
		t.Error("0 should still be resident")
	}
	if c.Access(256) {
		t.Error("256 should have been evicted")
	}
}

func TestPPEMemLevels(t *testing.T) {
	p := NewPPEMem(ppeMemConfig())
	cyc, l1 := p.Access(0x4000, 4)
	if l1 || cyc != 200 {
		t.Errorf("cold access: cycles=%d l1=%v, want 200,false", cyc, l1)
	}
	cyc, l1 = p.Access(0x4000, 4)
	if !l1 || cyc != 4 {
		t.Errorf("warm access: cycles=%d l1=%v, want 4,true", cyc, l1)
	}
	// Straddling two lines costs two probes.
	cyc, _ = p.Access(0x4000+126, 4)
	if cyc != 4+200 {
		t.Errorf("straddle: cycles=%d want 204", cyc)
	}
}

func TestBranchPredictorLearnsLoop(t *testing.T) {
	bp := NewBranchPredictor(10)
	// A loop backedge taken 100 times: after warm-up it should predict.
	missesLate := 0
	for i := 0; i < 100; i++ {
		ok := bp.Predict(0x40, true)
		if i >= 4 && !ok {
			missesLate++
		}
	}
	if missesLate != 0 {
		t.Errorf("predictor failed to learn a monotone branch: %d late misses", missesLate)
	}
	if bp.Accuracy() < 0.9 {
		t.Errorf("accuracy %f too low", bp.Accuracy())
	}
}

func TestMachineConstruction(t *testing.T) {
	m, err := NewMachine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ppe := m.CoresOf(isa.PPE)[0]
	if ppe.Kind != isa.PPE || ppe.Mem == nil || ppe.BP == nil {
		t.Error("PPE misconfigured")
	}
	if len(m.ofKind(isa.SPE)) != 6 {
		t.Fatalf("want 6 SPEs, got %d", len(m.ofKind(isa.SPE)))
	}
	for i, s := range m.CoresOf(isa.SPE) {
		if s.Kind != isa.SPE || s.ID != i {
			t.Errorf("SPE %d misconfigured", i)
		}
		if s.MFC == nil {
			t.Fatalf("SPE %d has no MFC", i)
		}
		if got := s.MFC.LocalStoreSize(); got != 256<<10 {
			t.Errorf("SPE %d local store = %d", i, got)
		}
	}
	if len(m.Cores()) != 7 || m.NumCores() != 7 {
		t.Errorf("Cores() returned %d", len(m.Cores()))
	}
	for i, c := range m.Cores() {
		if c.Index != i {
			t.Errorf("core %d has global index %d", i, c.Index)
		}
	}
	if !m.HasKind(isa.PPE) || !m.HasKind(isa.SPE) {
		t.Error("HasKind misreports the default topology")
	}
	if m.Describe() != "1 PPE + 6 SPEs" {
		t.Errorf("Describe() = %q", m.Describe())
	}
}

// TestBootCostIndependentOfMemorySize pins what demand paging buys by a
// deterministic count rather than a timer: building a machine allocates
// a page directory, not the memory, so sixteen times the main memory may
// cost only the larger directory (128 KB at 1 GB).
func TestBootCostIndependentOfMemorySize(t *testing.T) {
	bootBytes := func(size uint32) uint64 {
		cfg := DefaultConfig()
		cfg.MainMemory = size
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := NewMachine(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := bootBytes(64<<20), bootBytes(1<<30)
	if large >= small+1<<20 {
		t.Fatalf("NewMachine allocates %d bytes with 64 MB of main memory and %d with 1 GB; they may differ by < 1 MB",
			small, large)
	}
}

func TestMachineAsymmetricTopology(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = Topology{{Kind: isa.PPE, Count: 2}, {Kind: isa.SPE, Count: 2}}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.ofKind(isa.PPE)) != 2 || len(m.ofKind(isa.SPE)) != 2 {
		t.Fatalf("core counts: %d PPE, %d SPE", len(m.ofKind(isa.PPE)), len(m.ofKind(isa.SPE)))
	}
	for i, p := range m.CoresOf(isa.PPE) {
		if p.ID != i || p.Mem == nil || p.BP == nil || p.MFC != nil {
			t.Errorf("PPE %d misconfigured", i)
		}
		if m.CoreAt(isa.PPE, i) != p {
			t.Errorf("CoreAt(PPE, %d) mismatch", i)
		}
	}
	for i, s := range m.CoresOf(isa.SPE) {
		if s.ID != i || s.MFC == nil || s.Mem != nil {
			t.Errorf("SPE %d misconfigured", i)
		}
	}
	if m.CoresOf(isa.PPE)[1].String() != "PPE1" || m.CoresOf(isa.SPE)[1].String() != "SPE1" {
		t.Errorf("core names: %s, %s", m.CoresOf(isa.PPE)[1], m.CoresOf(isa.SPE)[1])
	}
	if m.Describe() != "2 PPEs + 2 SPEs" {
		t.Errorf("Describe() = %q", m.Describe())
	}
}

func TestMachineValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Topology = PS3Topology(-1)
	if _, err := NewMachine(bad); err == nil {
		t.Error("negative SPE count should fail")
	}
	bad = DefaultConfig()
	bad.Topology = nil
	if _, err := NewMachine(bad); err == nil {
		t.Error("empty topology should fail")
	}
	bad = DefaultConfig()
	bad.Topology = Topology{{Kind: isa.SPE, Count: 4}}
	if _, err := NewMachine(bad); err == nil {
		t.Error("PPE-less topology should fail (GC and syscalls need one)")
	}
	bad = DefaultConfig()
	bad.MainMemory = 1024
	if _, err := NewMachine(bad); err == nil {
		t.Error("tiny memory should fail")
	}
	bad = DefaultConfig()
	bad.LocalStore = 1024
	if _, err := NewMachine(bad); err == nil {
		t.Error("tiny local store should fail")
	}
}

func TestParseTopology(t *testing.T) {
	cases := map[string]string{
		"ppe:1,spe:6": "ppe:1,spe:6",
		"PPE:2":       "ppe:2",
		"ppe, spe":    "ppe:1,spe:1",
		// Interleaved groups round-trip in declaration order: core
		// indices follow topology order, so canonicalizing would
		// describe a different machine.
		"spe:3,ppe:1,spe:3": "spe:3,ppe:1,spe:3",
	}
	for in, want := range cases {
		topo, err := ParseTopology(in)
		if err != nil {
			t.Errorf("ParseTopology(%q): %v", in, err)
			continue
		}
		if topo.String() != want {
			t.Errorf("ParseTopology(%q) = %q, want %q", in, topo, want)
		}
	}
	for _, in := range []string{"", "qpu:4", "ppe:x", "spe:6", "ppe:-1"} {
		if _, err := ParseTopology(in); err == nil {
			t.Errorf("ParseTopology(%q) should fail", in)
		}
	}
}

func TestCoreCharging(t *testing.T) {
	c := &Core{Kind: isa.SPE}
	c.Charge(isa.ClassFloat, 10)
	c.Charge(isa.ClassMainMem, 5)
	c.AdvanceTo(c.Now + 3)
	if c.Now != 18 {
		t.Errorf("clock: got %d want 18", c.Now)
	}
	if c.Stats.Cycles[isa.ClassFloat] != 10 || c.Stats.Idle != 3 {
		t.Error("stats not charged correctly")
	}
	c.AdvanceTo(10) // must not go backwards
	if c.Now != 18 {
		t.Errorf("AdvanceTo moved clock backwards to %d", c.Now)
	}
	c.AdvanceTo(25)
	if c.Now != 25 || c.Stats.Idle != 10 {
		t.Errorf("AdvanceTo: now=%d idle=%d", c.Now, c.Stats.Idle)
	}
}

func TestMaxClock(t *testing.T) {
	m, err := NewMachine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.CoreAt(isa.SPE, 3).Now = 1000
	m.CoreAt(isa.PPE, 0).Now = 500
	if m.MaxClock() != 1000 {
		t.Errorf("MaxClock: got %d", m.MaxClock())
	}
}

// Property: the interval-timeline EIB never books overlapping intervals
// on a channel, and a transfer never completes before its request plus
// its minimum duration — even with heavily skewed request clocks, the
// situation that broke the simpler watermark design.
func TestEIBIntervalInvariantProperty(t *testing.T) {
	f := func(reqs []uint32) bool {
		e := NewEIB(EIBConfig{Channels: 2, BytesPerCycle: 8, ArbCycles: 10})
		for i, r := range reqs {
			now := Clock(r % 50000) // deliberately non-monotone request times
			n := uint32(i%2048) + 1
			done := e.Transfer(now, n)
			minDur := Clock(10) + Clock(float64(n)/8)
			if done < now+minDur {
				return false
			}
		}
		for _, tl := range e.channels {
			for i := 1; i < len(tl); i++ {
				if tl[i].start < tl[i-1].end {
					return false // overlap
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// refEIB is Transfer's specification by exhaustive search: every
// channel keeps every interval it ever booked, unsorted and never
// pruned, and a request starts at the earliest candidate — now, or the
// end of a booked interval after now — whose span overlaps nothing on
// some channel, ties going to the lowest channel.
type refEIB struct {
	cfg      EIBConfig
	channels [][]interval
	wait     uint64
}

func (r *refEIB) transfer(now Clock, n uint32) Clock {
	dur := Clock(r.cfg.ArbCycles) + Clock(float64(n)/r.cfg.BytesPerCycle)
	if dur == 0 {
		dur = 1
	}
	bestCh, bestStart := -1, Clock(0)
	for ch, tl := range r.channels {
		cands := []Clock{now}
		for _, iv := range tl {
			if iv.end > now {
				cands = append(cands, iv.end)
			}
		}
		for _, start := range cands {
			fits := true
			for _, iv := range tl {
				if iv.start < start+dur && start < iv.end {
					fits = false
					break
				}
			}
			if fits && (bestCh < 0 || start < bestStart) {
				bestCh, bestStart = ch, start
			}
		}
	}
	r.channels[bestCh] = append(r.channels[bestCh], interval{bestStart, bestStart + dur})
	r.wait += bestStart - now
	return bestStart + dur
}

// TestEIBMatchesExhaustiveSearch replays a seeded stream of requests
// from six cores on skewed clocks — mostly short transfers with a
// tail of 16 KB ones, and now and then a core racing ahead by a long
// compute stretch — through Transfer and through refEIB. Every
// completion time and the total wait must agree: the gap search's
// shortcuts (binary search, the free-at-now early exit, pruning) change
// no booking.
func TestEIBMatchesExhaustiveSearch(t *testing.T) {
	for _, cfg := range []EIBConfig{DefaultEIBConfig(), {Channels: 2, BytesPerCycle: 8, ArbCycles: 10}} {
		rng := rand.New(rand.NewSource(7))
		e := NewEIB(cfg)
		ref := &refEIB{cfg: cfg, channels: make([][]interval, cfg.Channels)}
		clocks := make([]Clock, 6)
		for i := 0; i < 1500; i++ {
			c := 0 // the lagging core issues next, as the VM steps it
			for j := range clocks {
				if clocks[j] < clocks[c] {
					c = j
				}
			}
			n := uint32(128)
			if rng.Intn(8) == 0 {
				n = 16 << 10
			}
			got, want := e.Transfer(clocks[c], n), ref.transfer(clocks[c], n)
			if got != want {
				t.Fatalf("%+v request %d (core %d at %d, %d bytes): done at %d, want %d", cfg, i, c, clocks[c], n, got, want)
			}
			clocks[c] += Clock(rng.Intn(200))
			if rng.Intn(50) == 0 {
				clocks[c] += 20_000
			}
		}
		if e.WaitCycles != ref.wait || ref.wait == 0 {
			t.Errorf("%+v: WaitCycles = %d, want %d (and some contention)", cfg, e.WaitCycles, ref.wait)
		}
	}
}

// A lagging requester must be able to use bus time that is still free
// before reservations made at later timestamps (no phantom queueing).
func TestEIBNoPhantomWaitForLaggingCore(t *testing.T) {
	e := NewEIB(EIBConfig{Channels: 1, BytesPerCycle: 8, ArbCycles: 0})
	// A future-time reservation far ahead.
	e.Transfer(100000, 800) // occupies [100000, 100100)
	// A lagging core asks at t=0 for a short transfer: plenty of free bus
	// before the reservation.
	done := e.Transfer(0, 80)
	if done != 10 {
		t.Errorf("lagging transfer should run immediately: done=%d", done)
	}
	if e.WaitCycles != 0 {
		t.Errorf("phantom wait recorded: %d", e.WaitCycles)
	}
}

func TestParseTopologyList(t *testing.T) {
	list, err := ParseTopologyList(" ppe:1,spe:6 ; ppe:1,spe:4,vpu:2 ;")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("got %d topologies, want 2", len(list))
	}
	if list[0].String() != "ppe:1,spe:6" || list[1].String() != "ppe:1,spe:4,vpu:2" {
		t.Errorf("round trip: %v", list)
	}
	if _, err := ParseTopologyList("ppe:1;zzz:3"); err == nil {
		t.Error("unknown kind in a list entry should error")
	}
	if _, err := ParseTopologyList(" ; "); err == nil {
		t.Error("an all-empty list should error")
	}
}
