package kernel

import (
	"math"
	"strings"
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
		p := Plan{Chunks: chunks}
		if err := p.Validate(c.from, c.to, []Pool{{Kind: isa.PPE, Cores: c.workers}}); err != nil {
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
	pools := []Pool{huge, staged}
	if plan, ok := PlanLaunch(0, 4, pools); !ok || plan.Validate(0, 4, pools) != nil || len(plan.Chunks) != 1 {
		t.Errorf("saturated pools: plan %+v, %v, want one valid chunk", plan, ok)
	}
	if best, _ := ChoosePool(4, []Pool{huge, {Kind: isa.PPE, Cores: 1, Iter: 3}}); best.Kind != isa.PPE {
		t.Errorf("ChoosePool = %v, want the PPE over a saturated pool", best.Kind)
	}
}

// TestPlanLaunch: unpriced pools keep the one-pool rule — they all
// finish everything at once, and the widest takes it.
func TestPlanLaunch(t *testing.T) {
	pools := []Pool{{Kind: isa.PPE, Cores: 1}, {Kind: isa.SPE, Cores: 6}}
	plan, ok := PlanLaunch(0, 64, pools)
	if !ok {
		t.Fatal("PlanLaunch failed")
	}
	if plan.Kinds() != isa.KindSet(0).With(isa.SPE) || len(plan.Chunks) != 6 {
		t.Fatalf("plan = %+v, want 6 SPE chunks", plan)
	}
	if err := plan.Validate(0, 64, pools); err != nil {
		t.Fatal(err)
	}
	if _, ok := PlanLaunch(0, 64, []Pool{{Kind: isa.SPE}}); ok {
		t.Error("PlanLaunch planned on a pool with no core")
	}
	if plan, ok := PlanLaunch(9, 9, pools); !ok || len(plan.Chunks) != 0 {
		t.Errorf("empty range: plan %+v, %v, want no chunks", plan, ok)
	}
}

// shares sums each kind's iterations in plan.
func shares(plan Plan) map[isa.CoreKind]int {
	out := map[isa.CoreKind]int{}
	for _, c := range plan.Chunks {
		out[c.Kind] += int(c.To - c.From)
	}
	return out
}

// TestPlanLaunchPPETakesAShare: beside two SPEs that stage first and
// then run 10 cycles an iteration, the PPE at 14 takes the share that
// evens out the finish — the 1 104 iterations it runs by cycle 15 460,
// the least T at which ⌊T/14⌋ + 2·⌊(T−500)/10⌋ reaches 4 096 — and the
// split beats the SPEs alone (500 + 10·2 048 = 20 980 cycles).
func TestPlanLaunchPPETakesAShare(t *testing.T) {
	pools := []Pool{{Kind: isa.PPE, Cores: 1, Iter: 14}, {Kind: isa.SPE, Cores: 2, Iter: 10, Stage: 500}}
	plan, ok := PlanLaunch(0, 4096, pools)
	if !ok {
		t.Fatal("PlanLaunch failed")
	}
	if err := plan.Validate(0, 4096, pools); err != nil {
		t.Fatal(err)
	}
	got := shares(plan)
	if got[isa.PPE] != 1104 || got[isa.SPE] != 2992 || len(plan.Chunks) != 3 {
		t.Fatalf("shares %v in %d chunks, want PPE 1104 and SPE 2992 in 3", got, len(plan.Chunks))
	}
	ppe, spe := pools[0].Makespan(1104), pools[1].Makespan(2992)
	if best, _ := ChoosePool(4096, pools); ppe > 15460 || spe != 15460 || best.Makespan(4096) != 20980 {
		t.Errorf("finishes PPE %d, SPE %d, want both by 15460 against the SPEs' 20980 alone", ppe, spe)
	}
}

// TestPlanLaunchSkipsSlowPools: a pool whose first iteration would end
// after the others finish the whole launch gets no share and no worker
// — here the VPUs, whose staging runs past the launch's end.
func TestPlanLaunchSkipsSlowPools(t *testing.T) {
	pools := []Pool{
		{Kind: isa.PPE, Cores: 1, Iter: 14},
		{Kind: isa.SPE, Cores: 4, Iter: 10, Stage: 500},
		{Kind: isa.VPU, Cores: 2, Iter: 8, Stage: 1 << 20},
	}
	plan, _ := PlanLaunch(0, 4096, pools)
	if err := plan.Validate(0, 4096, pools); err != nil {
		t.Fatal(err)
	}
	if want := isa.KindSet(0).With(isa.PPE).With(isa.SPE); plan.Kinds() != want {
		t.Errorf("plan runs on %v, want %v", plan.Kinds(), want)
	}
	pools[2].Stage = 500
	if plan, _ := PlanLaunch(0, 4096, pools); len(shares(plan)) != 3 {
		t.Errorf("cheaply staged VPUs: shares %v, want all three kinds", shares(plan))
	}
}

// TestValidateRejects: each broken plan fails with its own rule.
func TestValidateRejects(t *testing.T) {
	pools := []Pool{{Kind: isa.PPE, Cores: 1}, {Kind: isa.SPE, Cores: 2}}
	for _, tc := range []struct {
		name   string
		chunks []Chunk
		want   string
	}{
		{"no chunks", nil, "planned no chunks"},
		{"no such pool", []Chunk{{From: 0, To: 8, Kind: isa.VPU}}, "VPU worker 0, which has no core"},
		{"worker past the pool", []Chunk{{From: 0, To: 8, Kind: isa.SPE, Worker: 2}}, "SPE worker 2, which has no core"},
		{"worker reused", []Chunk{{From: 0, To: 4, Kind: isa.SPE}, {From: 4, To: 8, Kind: isa.SPE}}, "reuses SPE worker 0"},
		{"gap", []Chunk{{From: 0, To: 3}, {From: 4, To: 8, Kind: isa.SPE}}, "starts at 4, want 3"},
		{"empty chunk", []Chunk{{From: 0, To: 0}, {From: 0, To: 8, Kind: isa.SPE}}, "empty [0,0)"},
		{"short", []Chunk{{From: 0, To: 7}}, "end at 7, want 8"},
	} {
		err := Plan{Chunks: tc.chunks}.Validate(0, 8, pools)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	if err := (Plan{Chunks: []Chunk{{From: 0, To: 1}}}).Validate(3, 3, pools); err == nil {
		t.Error("an empty range accepted a chunk")
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
