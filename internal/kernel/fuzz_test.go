package kernel

import (
	"testing"

	"herajvm/internal/isa"
)

// FuzzPlan throws arbitrary launch descriptors (iteration range, pool
// shapes and prices, tiling parameters) at the planner and
// asserts the invariants every launch depends on: every iteration runs
// exactly once across the pools, no core runs two workers, tiles cover
// the byte extent — and the split's predicted makespan is no worse than
// the best single pool's, and on a short launch equals the n-th
// earliest iteration slot any pool offers (the water-fill is exact).
// The VM trusts these invariants without rechecking, so the fuzzer is
// the backstop.
func FuzzPlan(f *testing.F) {
	f.Add(int32(0), int32(1024), 1, 4, 2, uint64(0), uint32(4096), uint32(1024))
	f.Add(int32(-50), int32(50), 1, 6, 0, uint64(3000)<<32|8<<16|10, uint32(100), uint32(0))
	f.Add(int32(0), int32(4096), 1, 2, 2, uint64(500)<<32|8<<16|10, uint32(0), uint32(0))
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
		if err := plan.Validate(from, to, pools); err != nil {
			t.Fatalf("plan invalid: %v (from=%d to=%d pools=%v)", err, from, to, pools)
		}
		n := uint64(max(int64(to)-int64(from), 0))
		if n == 0 {
			return
		}
		got := shares(plan)
		var span uint64
		for _, p := range pools {
			if got[p.Kind] > 0 {
				span = max(span, p.Makespan(uint64(got[p.Kind])))
			}
		}
		best, _ := ChoosePool(n, pools)
		if span > best.Makespan(n) {
			t.Fatalf("split finishes at %d, after the %v pool alone (%d): shares %v, pools %v",
				span, best.Kind, best.Makespan(n), got, pools)
		}
		if n <= 1<<12 {
			if want := nthSlot(n, pools); span != want {
				t.Fatalf("split finishes at %d, want the %d-th earliest slot %d: shares %v, pools %v",
					span, n, want, got, pools)
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

// nthSlot is the least makespan of n iterations over pools, by brute
// force: core c of a pool offers its k-th iteration at Stage + k·Iter
// (an unpriced pool offers every iteration at Stage), and
// the launch ends at the n-th earliest offer.
func nthSlot(n uint64, pools []Pool) uint64 {
	next := make([]uint64, len(pools)) // iterations each pool's cores took so far
	var at uint64
	for taken := uint64(0); taken < n; {
		pick := -1
		for i, p := range pools {
			if p.Cores <= 0 {
				continue
			}
			if t := p.Makespan(uint64(p.Cores) * (next[i] + 1)); pick < 0 || t < at {
				pick, at = i, t
			}
		}
		next[pick]++
		taken += uint64(pools[pick].Cores)
	}
	return at
}
