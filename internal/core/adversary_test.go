package core

import (
	"fmt"
	"testing"

	"obm/internal/graph"
	"obm/internal/trace"
)

// AdaptiveAdversary generates the request sequence that separates
// deterministic from randomized online algorithms (the Θ(b) vs O(log b)
// gap, Theorems 2 and 4): on a star with b+1 leaves it watches the
// algorithm's matching and always requests a hub–leaf pair that is
// currently *unmatched*. A deterministic algorithm can be tracked exactly
// and misses every block; a randomized algorithm cannot (against an
// oblivious adversary), but this adaptive variant still exhibits the
// worst-case pressure on both.
//
// target is queried through its public Matched method only. blockLen
// requests are issued per chosen pair (blockLen = α makes each block
// exactly one rent-or-buy unit; blockLen = k_e forwards exactly once).
// The generated requests are served on target as they are produced, and
// also returned for replay against other algorithms.
func AdaptiveAdversary(target Algorithm, nLeaves, blocks, blockLen int) (*trace.Trace, error) {
	if nLeaves < 2 {
		return nil, fmt.Errorf("core: adversary needs nLeaves >= 2")
	}
	if blocks < 1 || blockLen < 1 {
		return nil, fmt.Errorf("core: adversary needs blocks, blockLen >= 1")
	}
	reqs := make([]trace.Request, 0, blocks*blockLen)
	for blk := 0; blk < blocks; blk++ {
		// Find an unmatched hub–leaf pair; the degree cap guarantees one
		// exists whenever nLeaves > b.
		leaf := -1
		for cand := 1; cand <= nLeaves; cand++ {
			if !target.Matched(0, cand) {
				leaf = cand
				break
			}
		}
		if leaf == -1 {
			// Fully matched (nLeaves <= b): rotate deterministically.
			leaf = 1 + blk%nLeaves
		}
		for j := 0; j < blockLen; j++ {
			reqs = append(reqs, trace.Request{Src: 0, Dst: int32(leaf)})
			target.Serve(0, leaf)
		}
	}
	return &trace.Trace{
		Name:     fmt.Sprintf("adversary(star %d leaves)", nLeaves),
		NumRacks: nLeaves + 1,
		Reqs:     reqs,
	}, nil
}

func TestAdaptiveAdversaryValidation(t *testing.T) {
	top := graph.Star(4)
	model := CostModel{Metric: top.Metric(), Alpha: 4}
	alg, _ := NewBMA(top.NumRacks(), 2, model)
	if _, err := AdaptiveAdversary(alg, 1, 10, 4); err == nil {
		t.Error("nLeaves=1 accepted")
	}
	if _, err := AdaptiveAdversary(alg, 4, 0, 4); err == nil {
		t.Error("blocks=0 accepted")
	}
	if _, err := AdaptiveAdversary(alg, 4, 10, 0); err == nil {
		t.Error("blockLen=0 accepted")
	}
}

func TestAdversaryHurtsDeterministicMoreThanRandomized(t *testing.T) {
	// The separation experiment: build the adversarial sequence against
	// deterministic BMA (it always requests an unmatched hub pair, so BMA
	// keeps paying rent and churning), then replay the same sequence on
	// R-BMA with several seeds. The deterministic algorithm's cost should
	// exceed the randomized algorithm's average noticeably.
	b := 4
	nLeaves := b + 1
	top := graph.Star(nLeaves)
	model := CostModel{Metric: top.Metric(), Alpha: 8}
	alpha := model.Alpha

	bma, err := NewBMA(top.NumRacks(), b, model)
	if err != nil {
		t.Fatal(err)
	}
	// Generate against BMA while serving it, tracking its cost.
	var bmaCost float64
	tr, err := AdaptiveAdversary(bma, nLeaves, 400, int(alpha))
	if err != nil {
		t.Fatal(err)
	}
	// Re-run BMA from scratch on the recorded trace to get its total cost
	// (the generator already served it once; replay a fresh instance).
	bma2, _ := NewBMA(top.NumRacks(), b, model)
	for _, req := range tr.Reqs {
		bmaCost += bma2.Serve(int(req.Src), int(req.Dst)).Total(alpha)
	}

	var rbmaSum float64
	const seeds = 5
	for s := uint64(0); s < seeds; s++ {
		r, _ := NewRBMA(top.NumRacks(), b, model, s)
		for _, req := range tr.Reqs {
			rbmaSum += r.Serve(int(req.Src), int(req.Dst)).Total(alpha)
		}
	}
	rbmaAvg := rbmaSum / seeds
	t.Logf("adversarial star: BMA %v vs R-BMA %v (ratio %.2f)",
		bmaCost, rbmaAvg, bmaCost/rbmaAvg)
	if bmaCost <= rbmaAvg {
		t.Fatalf("adaptive adversary should hurt deterministic BMA more: %v vs %v",
			bmaCost, rbmaAvg)
	}
}

func TestAdversaryRotatesWhenFullyMatchable(t *testing.T) {
	// nLeaves <= b: everything can be matched; the adversary must still
	// produce a valid trace.
	top := graph.Star(3)
	model := CostModel{Metric: top.Metric(), Alpha: 4}
	alg, _ := NewRBMA(top.NumRacks(), 3, model, 1)
	tr, err := AdaptiveAdversary(alg, 3, 30, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 120 {
		t.Fatalf("trace length %d, want 120", tr.Len())
	}
}
