package collective

import (
	"math"
	"testing"
	"testing/quick"

	"hammingmesh/internal/netsim"
	"hammingmesh/internal/routing"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

func TestAllreduceAsymptoticBandwidths(t *testing.T) {
	pr := DefaultParams()
	p := 1024
	huge := 1e12 // bytes, to reach the asymptote
	// Two rings reach the optimum: NICs/(2β) = 100 GB/s.
	bw := AllreduceBandwidth(huge, TwoRingsAllreduceTime(p, huge, pr))
	if math.Abs(bw-OptimalAllreduceBandwidth(pr)) > 1 {
		t.Errorf("two-rings asymptotic bw = %.1f, want ≈%.1f", bw, OptimalAllreduceBandwidth(pr))
	}
	// Unidirectional ring on one NIC reaches 1/(2β) = 25 GB/s.
	bw = AllreduceBandwidth(huge, RingAllreduceTime(p, huge, pr))
	if math.Abs(bw-25) > 0.5 {
		t.Errorf("ring asymptotic bw = %.1f, want 25", bw)
	}
	// Bidirectional ring doubles it.
	bw = AllreduceBandwidth(huge, BidirRingAllreduceTime(p, huge, pr))
	if math.Abs(bw-50) > 0.5 {
		t.Errorf("bidir ring asymptotic bw = %.1f, want 50", bw)
	}
}

func TestTorusAlgorithmWinsAtSmallSizes(t *testing.T) {
	// Fig. 13: the torus algorithm achieves higher throughput at smaller
	// message sizes (latency √p vs p); rings win for large messages.
	pr := DefaultParams()
	p := 4096
	small := float64(64 << 10)
	large := 1.0e9
	tSmallTorus := Torus2DAllreduceTime(p, small, pr)
	tSmallRings := TwoRingsAllreduceTime(p, small, pr)
	if tSmallTorus >= tSmallRings {
		t.Errorf("small msg: torus %.0f ns not faster than rings %.0f ns", tSmallTorus, tSmallRings)
	}
	tLargeTorus := Torus2DAllreduceTime(p, large, pr)
	tLargeRings := TwoRingsAllreduceTime(p, large, pr)
	if tLargeRings >= tLargeTorus {
		t.Errorf("large msg: rings %.0f ns not faster than torus %.0f ns", tLargeRings, tLargeTorus)
	}
}

func TestBestAllreduceSelection(t *testing.T) {
	pr := DefaultParams()
	p := 4096
	if a, _ := BestAllreduce(p, 1<<10, pr); a != AlgoTree {
		t.Errorf("1 KiB best = %v, want tree", a)
	}
	if a, _ := BestAllreduce(p, 1<<30, pr); a != AlgoTwoRings {
		t.Errorf("1 GiB best = %v, want two rings", a)
	}
}

func TestAllreduceTimeMonotonicInSize(t *testing.T) {
	pr := DefaultParams()
	f := func(p8 uint8, s uint32) bool {
		p := int(p8)%1000 + 4
		b := float64(s%(1<<20)) + 1
		for _, a := range []AllreduceAlgorithm{AlgoRing, AlgoBidirRing, AlgoTwoRings, AlgoTorus2D, AlgoTree} {
			if AllreduceTime(a, p, 2*b, pr) < AllreduceTime(a, p, b, pr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAlltoallBandwidthSaturates(t *testing.T) {
	pr := DefaultParams()
	share := 0.25
	bwSmall := AlltoallBandwidth(1024, 1<<10, share, pr)
	bwLarge := AlltoallBandwidth(1024, 16<<20, share, pr)
	sat := float64(pr.NICs) / pr.BetaNSPerByte * share // 50 GB/s for Hx2
	if bwLarge < 0.9*sat || bwLarge > sat {
		t.Errorf("large-message alltoall bw = %.1f, want ≈%.1f", bwLarge, sat)
	}
	if bwSmall >= bwLarge {
		t.Errorf("alltoall bw not increasing with message size: %.1f ≥ %.1f", bwSmall, bwLarge)
	}
}

func TestScaleBetaByShare(t *testing.T) {
	pr := DefaultParams()
	d := ScaleBetaByShare(pr, 0.5)
	if math.Abs(d.BetaNSPerByte-2*pr.BetaNSPerByte) > 1e-12 {
		t.Errorf("derated beta = %f, want doubled", d.BetaNSPerByte)
	}
	if got := ScaleBetaByShare(pr, 0); got != pr {
		t.Error("invalid share must leave params unchanged")
	}
}

func TestTwoRingsOnHxMeshMapping(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 4, 4, topo.DefaultLinkParams())
	r1, r2, err := TwoRingsOnHxMesh(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != h.NumEndpoints() || len(r2) != h.NumEndpoints() {
		t.Fatalf("ring lengths %d/%d, want %d", len(r1), len(r2), h.NumEndpoints())
	}
	// Every consecutive pair must be within 3 links (accel-switch-accel at
	// most, or 1 on-board link).
	tab := routing.NewTable(simcore.Of(h.Network))
	dist := func(a, b topo.NodeID) int { return int(tab.Dist(b)[a]) }
	if got := RingLinkStress(dist, r1); got > 3 {
		t.Errorf("ring1 max edge distance = %d, want ≤3", got)
	}
	if got := RingLinkStress(dist, r2); got > 3 {
		t.Errorf("ring2 max edge distance = %d, want ≤3", got)
	}
}

func TestMeasuredAllreduceShareHxMesh(t *testing.T) {
	// Table II reports allreduce at ≈98% of optimum for the small
	// Hx2Mesh; our small instance should comfortably exceed 80%.
	h := topo.NewHxMesh(2, 2, 4, 4, topo.DefaultLinkParams())
	r1, r2, err := TwoRingsOnHxMesh(h)
	if err != nil {
		t.Fatal(err)
	}
	share, err := MeasureAllreduceShare(simcore.Of(h.Network), nil, [][]topo.NodeID{r1, r2}, 256<<10, netsim.DefaultConfig(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if share < 0.8 || share > 1.01 {
		t.Errorf("allreduce share = %.3f, want ≈0.98", share)
	}
}

func TestMeasuredAllreduceShareTorus(t *testing.T) {
	n := topo.NewTorus2D(8, 8, 2, 2, topo.DefaultLinkParams())
	r1, r2, err := TwoRingsOnTorus(n, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	share, err := MeasureAllreduceShare(simcore.Of(n), nil, [][]topo.NodeID{r1, r2}, 256<<10, netsim.DefaultConfig(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if share < 0.8 || share > 1.01 {
		t.Errorf("torus allreduce share = %.3f, want ≈0.98 (rings on disjoint cycles)", share)
	}
}

func TestSnakeRingCoversGrid(t *testing.T) {
	ring := SnakeRing(5, 4)
	if len(ring) != 20 {
		t.Fatalf("snake length %d", len(ring))
	}
	seen := map[Coord]bool{}
	for _, p := range ring {
		if seen[p] {
			t.Fatalf("snake revisits %v", p)
		}
		seen[p] = true
	}
}

func TestOtherCollectives(t *testing.T) {
	pr := DefaultParams()
	p := 1024
	huge := 1e12
	// Broadcast/allgather/reduce-scatter asymptote: NICs/beta... a single
	// traversal per byte: 200 GB/s at 4 NICs.
	for name, f := range map[string]func(int, float64, Params) float64{
		"broadcast": BroadcastTime, "reduce-scatter": ReduceScatterTime, "allgather": AllgatherTime,
	} {
		bw := huge / f(p, huge, pr)
		if bw < 190 || bw > 205 {
			t.Errorf("%s asymptotic bw = %.1f GB/s, want ≈200", name, bw)
		}
	}
	if bt := BarrierTime(1024, pr); bt != 10*pr.AlphaNS {
		t.Errorf("barrier time = %f, want 10 rounds", bt)
	}
	if BarrierTime(1, pr) != 0 {
		t.Error("single-process barrier must be free")
	}
	if pt := PipelineStageTime(1<<20, pr); pt <= pr.AlphaNS {
		t.Error("pipeline stage time implausible")
	}
}
