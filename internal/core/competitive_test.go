package core

import (
	"math"
	"testing"

	"obm/internal/graph"
	"obm/internal/paging"
	"obm/internal/stats"
	"obm/internal/trace"
)

func totalCost(alg Algorithm, tr *trace.Trace, alpha float64) float64 {
	var sum float64
	for _, req := range tr.Reqs {
		sum += alg.Serve(int(req.Src), int(req.Dst)).Total(alpha)
	}
	return sum
}

func TestOfflineOPTTinySanity(t *testing.T) {
	// Two racks, one pair: OPT either always routes (cost ℓ per request) or
	// buys the edge once (cost α + 1 per request).
	model := CostModel{Metric: graph.UniformMetric(2, 3), Alpha: 4}
	mkTrace := func(count int) *trace.Trace {
		reqs := make([]trace.Request, count)
		for i := range reqs {
			reqs[i] = trace.Request{Src: 0, Dst: 1}
		}
		return &trace.Trace{NumRacks: 2, Reqs: reqs}
	}
	// 1 request: routing (3) beats buying (4+1).
	got, err := OfflineOPT(mkTrace(1), 1, model, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("OPT(1 request) = %v, want 3", got)
	}
	// 10 requests: buying up front (4 + 10·1 = 14) beats routing (30).
	got, err = OfflineOPT(mkTrace(10), 1, model, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if got != 14 {
		t.Fatalf("OPT(10 requests) = %v, want 14", got)
	}
}

func TestOfflineOPTNeverAboveOblivious(t *testing.T) {
	model := CostModel{Metric: graph.UniformMetric(4, 2), Alpha: 3}
	tr := trace.Uniform(4, 300, 9)
	opt, err := OfflineOPT(tr, 1, model, 100000)
	if err != nil {
		t.Fatal(err)
	}
	obl, _ := NewOblivious(model)
	oblCost := totalCost(obl, tr, model.Alpha)
	if opt > oblCost {
		t.Fatalf("OPT %v exceeds oblivious %v", opt, oblCost)
	}
	if opt <= 0 {
		t.Fatalf("OPT = %v", opt)
	}
}

func TestRBMAEmpiricalCompetitiveRatio(t *testing.T) {
	// Small uniform instance where exact OPT is computable. The theory
	// bound is O(γ·log b) with moderate constants; we assert a generous
	// numeric cap that a broken algorithm (e.g. thrashing reconfiguration)
	// would blow through.
	model := CostModel{Metric: graph.UniformMetric(5, 1), Alpha: 1}
	tr := trace.Uniform(5, 800, 31)
	b := 2
	opt, err := OfflineOPT(tr, b, model, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	const seeds = 5
	for s := uint64(0); s < seeds; s++ {
		r, _ := NewRBMA(5, b, model, s)
		sum += totalCost(r, tr, model.Alpha)
	}
	ratio := sum / seeds / opt
	t.Logf("empirical competitive ratio (uniform, b=%d): %.3f (OPT=%v)", b, ratio, opt)
	if ratio > 10 {
		t.Fatalf("empirical ratio %.2f implausibly high", ratio)
	}
}

func TestRBMAResourceAugmentationHelps(t *testing.T) {
	// (b,a)-setting: with a larger online cap b, R-BMA's cost against the
	// same a-restricted OPT should not increase (more capacity only helps
	// on average).
	model := CostModel{Metric: graph.UniformMetric(5, 1), Alpha: 1}
	tr := trace.Uniform(5, 1500, 17)
	avgCost := func(b int) float64 {
		var sum float64
		const seeds = 6
		for s := uint64(0); s < seeds; s++ {
			r, _ := NewRBMA(5, b, model, s)
			sum += totalCost(r, tr, model.Alpha)
		}
		return sum / seeds
	}
	c1 := avgCost(1)
	c3 := avgCost(3)
	if c3 > c1*1.05 {
		t.Fatalf("cost should not grow with b: b=1 → %v, b=3 → %v", c1, c3)
	}
}

func TestLowerBoundStarConstruction(t *testing.T) {
	// Theorem 4's embedding: a star with hub v0; requests are blocks of α
	// requests to {v0, v_i}. The hub's degree cap b makes the matched
	// leaves behave exactly like a size-b cache. Verify the embedding
	// properties on R-BMA: the hub never exceeds degree b, and after a
	// block the requested leaf is matched (it was requested α ≥ k_e times).
	nLeaves := 6
	b := 3
	top := graph.Star(nLeaves)
	model := CostModel{Metric: top.Metric(), Alpha: 8}
	r, err := NewRBMA(top.NumRacks(), b, model, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(5)
	alpha := int(model.Alpha)
	for block := 0; block < 200; block++ {
		leaf := 1 + rng.Intn(nLeaves)
		for j := 0; j < alpha; j++ {
			r.Serve(0, leaf)
		}
		if !r.Matched(0, leaf) {
			t.Fatalf("block %d: leaf %d not matched after α requests", block, leaf)
		}
		if err := CheckDegreeInvariant(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRandomizationBeatsLRUOnAdversarialCycle(t *testing.T) {
	// The deterministic-killer workload: cycle through b+1 hub pairs. LRU
	// caches fault on every forwarded request; randomized marking faults
	// ~H_b per phase. This is the observable content of the paper's
	// "exponentially better than deterministic" separation.
	nLeaves := 9
	b := 8
	top := graph.Star(nLeaves)
	model := CostModel{Metric: top.Metric(), Alpha: 1} // uniform-ish: k_e = 1
	reqs := make([]trace.Request, 0, 40000)
	for round := 0; round < 4000; round++ {
		leaf := 1 + round%(b+1)
		reqs = append(reqs, trace.Request{Src: 0, Dst: int32(leaf)})
	}
	tr := &trace.Trace{NumRacks: top.NumRacks(), Reqs: reqs}

	lru, _ := NewRBMA(top.NumRacks(), b, model, 1, WithCacheFactory(paging.NewLRUFactory, "lru"))
	lruCost := totalCost(lru, tr, model.Alpha)
	var markSum float64
	const seeds = 3
	for s := uint64(0); s < seeds; s++ {
		mark, _ := NewRBMA(top.NumRacks(), b, model, s)
		markSum += totalCost(mark, tr, model.Alpha)
	}
	markCost := markSum / seeds
	if markCost >= lruCost*0.8 {
		t.Fatalf("marking (%v) should clearly beat LRU (%v) on the adversarial cycle", markCost, lruCost)
	}
}

func TestRBMATotalCostWithinTheoryEnvelopeOnStar(t *testing.T) {
	// On the star lower-bound workload with random blocks, compare R-BMA to
	// the offline OPT computed by DP on a small instance and check the
	// ratio stays within a loose multiple of γ·ln(b)+1.
	nLeaves := 4
	b := 2
	top := graph.Star(nLeaves)
	model := CostModel{Metric: top.Metric(), Alpha: 3}
	rng := stats.NewRand(77)
	reqs := make([]trace.Request, 0, 1200)
	for block := 0; block < 120; block++ {
		leaf := 1 + rng.Intn(nLeaves)
		for j := 0; j < int(model.Alpha); j++ {
			reqs = append(reqs, trace.Request{Src: 0, Dst: int32(leaf)})
		}
	}
	tr := &trace.Trace{NumRacks: top.NumRacks(), Reqs: reqs}
	opt, err := OfflineOPT(tr, b, model, 2_000_000)
	if err != nil {
		t.Skipf("OPT not computable: %v", err)
	}
	var sum float64
	const seeds = 4
	for s := uint64(0); s < seeds; s++ {
		r, _ := NewRBMA(top.NumRacks(), b, model, s)
		sum += totalCost(r, tr, model.Alpha)
	}
	ratio := sum / seeds / opt
	gamma := 1 + float64(model.Metric.Max())/model.Alpha // γ = 1 + ℓmax/α (Corollary 3)
	bound := 16 * gamma * (math.Log(float64(b)) + 1)
	t.Logf("star ratio %.3f (loose envelope %.1f, OPT %v)", ratio, bound, opt)
	if ratio > bound {
		t.Fatalf("ratio %.2f above loose theory envelope %.2f", ratio, bound)
	}
}

func TestEagerAndLazyCostsComparable(t *testing.T) {
	// Lazy pruning (paper footnote 2) can only help routing cost (edges
	// stay usable longer) at equal-or-lower reconfiguration cost. Verify
	// lazy total ≤ eager total within noise on a skewed workload.
	model := testModel(16, 30)
	tr, _ := trace.FacebookStyle(trace.FacebookPreset(trace.Database, 16, 21))
	tr = tr.Prefix(40000)
	run := func(opts ...RBMAOption) float64 {
		var sum float64
		const seeds = 3
		for s := uint64(0); s < seeds; s++ {
			r, _ := NewRBMA(16, 3, model, s, opts...)
			sum += totalCost(r, tr, model.Alpha)
		}
		return sum / seeds
	}
	lazy := run()
	eager := run(WithEagerRemoval())
	t.Logf("lazy %.0f vs eager %.0f", lazy, eager)
	if lazy > eager*1.05 {
		t.Fatalf("lazy (%v) should not exceed eager (%v) by >5%%", lazy, eager)
	}
}
