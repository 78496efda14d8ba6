package kernel

import (
	"math"
	"testing"

	"herajvm/internal/isa"
)

func TestSplitRangeCoverage(t *testing.T) {
	cases := []struct {
		from, to int32
		workers  int
		want     int
	}{
		{0, 100, 4, 4},
		{0, 3, 8, 3},    // more workers than iterations
		{5, 5, 4, 0},    // empty range
		{10, 9, 4, 0},   // inverted range
		{-8, 8, 3, 3},   // negative start
		{0, 7, 2, 2},    // odd split
		{0, 1, 1, 1},    // singleton
		{0, 1000, 6, 6}, // ppe:1,spe:6 shape
	}
	for _, c := range cases {
		chunks := SplitRange(c.from, c.to, c.workers)
		if len(chunks) != c.want {
			t.Fatalf("SplitRange(%d,%d,%d) = %d chunks, want %d",
				c.from, c.to, c.workers, len(chunks), c.want)
		}
		p := Plan{Kind: isa.SPE, Chunks: chunks}
		if err := p.Validate(c.from, c.to); err != nil {
			t.Fatalf("SplitRange(%d,%d,%d): %v", c.from, c.to, c.workers, err)
		}
	}
}

func TestSplitRangeBalance(t *testing.T) {
	chunks := SplitRange(0, 10, 4)
	sizes := []int32{}
	for _, c := range chunks {
		sizes = append(sizes, c.To-c.From)
	}
	// Remainder front-loaded: 3,3,2,2.
	want := []int32{3, 3, 2, 2}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", sizes, want)
		}
	}
}

// TestChoosePoolPrefersVPU: at equal core counts the pool whose
// iterations cost less wins — the VPUs, on an FP body they run cheaper
// than the SPEs.
func TestChoosePoolPrefersVPU(t *testing.T) {
	pools := []Pool{
		{Kind: isa.PPE, Cores: 1, Iter: 14},
		{Kind: isa.SPE, Cores: 2, Iter: 10, Stage: 500},
		{Kind: isa.VPU, Cores: 2, Iter: 8, Stage: 500},
	}
	best, ok := ChoosePool(4096, pools)
	if !ok || best.Kind != isa.VPU {
		t.Fatalf("ChoosePool = %v,%v, want VPU pool", best, ok)
	}
}

// TestChoosePoolFewerCheaperCoresLose: a kind that runs each iteration
// cheaper still loses when it has too few cores to finish first — two
// VPUs at 8 cycles take 8·⌈n/2⌉, four SPEs at 10 take 10·⌈n/4⌉.
func TestChoosePoolFewerCheaperCoresLose(t *testing.T) {
	pools := []Pool{
		{Kind: isa.PPE, Cores: 1, Iter: 14},
		{Kind: isa.SPE, Cores: 4, Iter: 10, Stage: 500},
		{Kind: isa.VPU, Cores: 2, Iter: 8, Stage: 500},
	}
	best, ok := ChoosePool(4096, pools)
	if !ok || best.Kind != isa.SPE {
		t.Fatalf("ChoosePool = %v,%v, want SPE pool", best, ok)
	}
	if spe, vpu := pools[1].Makespan(4096), pools[2].Makespan(4096); spe != 10*1024+500 || vpu != 8*2048+500 {
		t.Fatalf("makespans SPE %d, VPU %d, want %d and %d", spe, vpu, 10*1024+500, 8*2048+500)
	}
}

// TestChoosePoolStagingDecidesSmallLaunches: staging is paid once per
// worker whatever the chunk, so a launch too short to repay it stays
// on the pool that stages nothing.
func TestChoosePoolStagingDecidesSmallLaunches(t *testing.T) {
	pools := []Pool{{Kind: isa.PPE, Cores: 1, Iter: 14}, {Kind: isa.SPE, Cores: 6, Iter: 10, Stage: 2000}}
	if best, _ := ChoosePool(16, pools); best.Kind != isa.PPE {
		t.Errorf("16 iterations: ChoosePool = %v, want the PPE", best.Kind)
	}
	if best, _ := ChoosePool(4096, pools); best.Kind != isa.SPE {
		t.Errorf("4096 iterations: ChoosePool = %v, want the SPEs", best.Kind)
	}
}

// TestChoosePoolSPEOverPPE: unpriced pools tie, and a tie goes to the
// pool with the most cores.
func TestChoosePoolSPEOverPPE(t *testing.T) {
	pools := []Pool{
		{Kind: isa.PPE, Cores: 1},
		{Kind: isa.SPE, Cores: 6},
	}
	best, ok := ChoosePool(64, pools)
	if !ok || best.Kind != isa.SPE {
		t.Fatalf("ChoosePool = %v,%v, want SPE pool", best, ok)
	}
}

func TestChoosePoolFallsBackToPPE(t *testing.T) {
	best, ok := ChoosePool(64, []Pool{{Kind: isa.PPE, Cores: 1}, {Kind: isa.SPE, Cores: 0}})
	if !ok || best.Kind != isa.PPE {
		t.Fatalf("ChoosePool = %v,%v, want PPE pool", best, ok)
	}
	if _, ok := ChoosePool(64, nil); ok {
		t.Fatal("ChoosePool(nil) reported a pool")
	}
}

// TestMakespanSaturates: a price too large to multiply out is the
// longest makespan, never a wrapped small one.
func TestMakespanSaturates(t *testing.T) {
	huge := Pool{Kind: isa.SPE, Cores: 1, Iter: math.MaxUint64 / 2}
	if got := huge.Makespan(4); got != math.MaxUint64 {
		t.Errorf("Makespan = %d, want saturation", got)
	}
	staged := Pool{Kind: isa.SPE, Cores: 1, Iter: 1, Stage: math.MaxUint64}
	if got := staged.Makespan(4); got != math.MaxUint64 {
		t.Errorf("Makespan = %d, want saturation", got)
	}
	if best, _ := ChoosePool(4, []Pool{huge, {Kind: isa.PPE, Cores: 1, Iter: 3}}); best.Kind != isa.PPE {
		t.Errorf("ChoosePool = %v, want the PPE over a saturated pool", best.Kind)
	}
}

func TestPlanLaunch(t *testing.T) {
	plan, ok := PlanLaunch(0, 64, []Pool{{Kind: isa.PPE, Cores: 1}, {Kind: isa.SPE, Cores: 6}})
	if !ok {
		t.Fatal("PlanLaunch failed")
	}
	if plan.Kind != isa.SPE || len(plan.Chunks) != 6 {
		t.Fatalf("plan = %+v, want 6 SPE chunks", plan)
	}
	if err := plan.Validate(0, 64); err != nil {
		t.Fatal(err)
	}
}

func TestTiles(t *testing.T) {
	tiles := Tiles(2500, 1024)
	if len(tiles) != 3 {
		t.Fatalf("Tiles(2500,1024) = %d tiles, want 3", len(tiles))
	}
	var covered uint32
	for i, tl := range tiles {
		if tl.Off != covered {
			t.Fatalf("tile %d off %d, want %d", i, tl.Off, covered)
		}
		if tl.Len == 0 {
			t.Fatalf("tile %d empty", i)
		}
		covered += tl.Len
	}
	if covered != 2500 {
		t.Fatalf("tiles cover %d bytes, want 2500", covered)
	}
	if got := Tiles(100, 0); len(got) != 1 || got[0].Len != 100 {
		t.Fatalf("Tiles(100,0) = %v, want one full tile", got)
	}
	if got := Tiles(0, 1024); got != nil {
		t.Fatalf("Tiles(0,1024) = %v, want nil", got)
	}
}
