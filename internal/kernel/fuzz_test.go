package kernel

import (
	"testing"

	"herajvm/internal/isa"
)

// FuzzPlan throws arbitrary launch descriptors (iteration range, pool
// shapes and prices, tiling parameters) at the planner and asserts the
// structural invariants every launch depends on: exact coverage, no
// overlap, worker ids dense, tiles covering the byte extent — and that
// no pool with a core was predicted to finish before the chosen one. The VM trusts
// these invariants without rechecking, so the fuzzer is the backstop.
func FuzzPlan(f *testing.F) {
	f.Add(int32(0), int32(1024), 1, 4, 2, uint64(0), uint32(4096), uint32(1024))
	f.Add(int32(-50), int32(50), 1, 6, 0, uint64(3000)<<32|8<<16|10, uint32(100), uint32(0))
	f.Add(int32(7), int32(7), 0, 0, 0, uint64(1), uint32(0), uint32(128))
	f.Add(int32(-2147483648), int32(2147483647), 1, 255, 255, ^uint64(0), uint32(1), uint32(1))
	f.Fuzz(func(t *testing.T, from, to int32, ppe, spe, vpu int, price uint64, total, tileBytes uint32) {
		// Clamp pool sizes to plausible machine shapes; negative core
		// counts must simply be skipped, so pass them through too.
		if ppe > 1024 {
			ppe = 1024
		}
		if spe > 1024 {
			spe = 1024
		}
		if vpu > 1024 {
			vpu = 1024
		}
		// price packs the SPE's and the VPU's per-iteration cycles in its
		// low two 16-bit halves and their staging in the high 32 bits; the
		// PPE stages nothing and pays the SPE's price plus one.
		spePrice, vpuPrice, stage := price&0xffff, price>>16&0xffff, price>>32
		pools := []Pool{
			{Kind: isa.PPE, Cores: ppe, Iter: spePrice + 1},
			{Kind: isa.SPE, Cores: spe, Iter: spePrice, Stage: stage},
			{Kind: isa.VPU, Cores: vpu, Iter: vpuPrice, Stage: stage},
		}
		plan, ok := PlanLaunch(from, to, pools)
		if !ok {
			if ppe > 0 || spe > 0 || vpu > 0 {
				t.Fatalf("PlanLaunch refused with cores available: %v", pools)
			}
			return
		}
		if err := plan.Validate(from, to); err != nil {
			t.Fatalf("plan invalid: %v (from=%d to=%d pools=%v)", err, from, to, pools)
		}
		// A planned chunk count never exceeds the chosen pool's cores, and
		// no pool with a core finishes before the chosen one.
		n := uint64(max(int64(to)-int64(from), 0))
		chosen := pools[plan.Kind]
		if len(plan.Chunks) > chosen.Cores {
			t.Fatalf("%d chunks exceed %d cores of %v", len(plan.Chunks), chosen.Cores, plan.Kind)
		}
		for _, p := range pools {
			if p.Cores > 0 && p.Makespan(n) < chosen.Makespan(n) {
				t.Fatalf("chose %v (makespan %d) over %v (makespan %d)", plan.Kind, chosen.Makespan(n), p.Kind, p.Makespan(n))
			}
		}

		if total > 1<<24 {
			total %= 1 << 24
		}
		if tileBytes > 1<<20 {
			tileBytes %= 1 << 20
		}
		tiles := Tiles(total, tileBytes)
		var covered uint32
		for i, tl := range tiles {
			if tl.Off != covered {
				t.Fatalf("tile %d off %d, want %d", i, tl.Off, covered)
			}
			if tl.Len == 0 {
				t.Fatalf("tile %d empty", i)
			}
			if tileBytes != 0 && tl.Len > tileBytes && total > tileBytes {
				t.Fatalf("tile %d len %d exceeds budget %d", i, tl.Len, tileBytes)
			}
			covered += tl.Len
		}
		if covered != total {
			t.Fatalf("tiles cover %d of %d bytes", covered, total)
		}
	})
}
