package core

import (
	"testing"

	"obm/internal/graph"
	"obm/internal/trace"
)

// TestKePairSharedOverFatTreeMetric pins that models built from the shared
// graph.FatTreeMetric reuse one k_e table: R-BMA instances share its
// backing array, even after more lookups than the cache's flush bound,
// and the cache gains no entry after the first table.
func TestKePairSharedOverFatTreeMetric(t *testing.T) {
	const n = 24
	kePairCache.Clear()
	kePairCacheSize.Store(0)
	model := func() CostModel { return CostModel{Metric: graph.FatTreeMetric(n), Alpha: 30} }

	first, err := NewRBMA(n, 3, model(), 1)
	if err != nil {
		t.Fatal(err)
	}
	size := kePairCacheSize.Load()
	second, err := NewRBMA(n, 4, model(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if &second.kePair[0] != &first.kePair[0] {
		t.Fatal("two R-BMAs over the shared fat-tree metric hold different k_e tables")
	}

	idx := trace.SharedPairIndex(n)
	for i := 0; i < 300; i++ {
		if kp := sharedKePair(model(), n, idx); &kp[0] != &first.kePair[0] {
			t.Fatalf("lookup %d returned a different k_e table", i)
		}
	}
	rebuilt, err := NewRBMA(n, 3, model(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if &rebuilt.kePair[0] != &first.kePair[0] {
		t.Fatal("an R-BMA rebuilt after many lookups holds a different k_e table")
	}
	if got := kePairCacheSize.Load(); got != size {
		t.Fatalf("kePairCacheSize grew from %d to %d after the first table", size, got)
	}
}
