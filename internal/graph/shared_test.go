package graph

import (
	"slices"
	"sync"
	"testing"
)

// resetFatTreeMetrics empties the shared cache so a test starts cold.
func resetFatTreeMetrics() {
	c := &fatTreeMetrics
	c.mu.Lock()
	c.entries = nil
	c.mu.Unlock()
}

func cachedRackCounts() int {
	c := &fatTreeMetrics
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// sameMetric reports whether two metrics have identical entries and ℓmax.
func sameMetric(a, b *Metric) bool {
	return a.n == b.n && a.max == b.max && slices.Equal(a.d, b.d)
}

func TestFatTreeMetricReturnsOnePointer(t *testing.T) {
	resetFatTreeMetrics()
	first := FatTreeMetric(40)
	for i := 0; i < 5; i++ {
		if got := FatTreeMetric(40); got != first {
			t.Fatalf("call %d returned a different metric pointer", i)
		}
	}
}

func TestFatTreeMetricMatchesFreshBuild(t *testing.T) {
	resetFatTreeMetrics()
	for _, n := range []int{1, 2, 13, 50, 100, 1024} {
		got, want := FatTreeMetric(n), FatTreeRacks(n).Metric()
		if got.N() != n || got.Max() != want.Max() {
			t.Fatalf("n=%d: N=%d Max=%d, want N=%d Max=%d", n, got.N(), got.Max(), n, want.Max())
		}
		if !sameMetric(got, want) {
			t.Fatalf("n=%d: shared metric entries differ from FatTreeRacks(n).Metric()", n)
		}
	}
}

// TestFatTreeMetricConcurrentFirstUse races goroutines on a cold rack
// count; run under -race it also checks the cache's synchronization.
func TestFatTreeMetricConcurrentFirstUse(t *testing.T) {
	resetFatTreeMetrics()
	const goroutines = 8
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		got   [goroutines]*Metric
	)
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[i] = FatTreeMetric(200)
		}()
	}
	start.Done()
	done.Wait()
	for i, m := range got {
		if m != got[0] {
			t.Fatalf("goroutine %d got a different metric pointer", i)
		}
	}
	if !sameMetric(got[0], FatTreeRacks(200).Metric()) {
		t.Fatal("raced metric differs from a fresh build")
	}
}

func TestFatTreeMetricCacheIsBounded(t *testing.T) {
	resetFatTreeMetrics()
	first := make(map[int]*Metric)
	for n := 2; n < 2+fatTreeMetricCacheSize; n++ {
		first[n] = FatTreeMetric(n)
	}
	if got := cachedRackCounts(); got != fatTreeMetricCacheSize {
		t.Fatalf("cache holds %d rack counts after filling, want %d", got, fatTreeMetricCacheSize)
	}
	for n, m := range first {
		if FatTreeMetric(n) != m {
			t.Fatalf("n=%d evicted before the cache overflowed", n)
		}
	}
	// One more rack count overflows the cache: it is cleared and keeps
	// only the newcomer.
	overflow := 2 + fatTreeMetricCacheSize
	FatTreeMetric(overflow)
	if got := cachedRackCounts(); got != 1 {
		t.Fatalf("cache holds %d rack counts after overflow, want 1", got)
	}
	for n := 2; n <= overflow+3*fatTreeMetricCacheSize; n++ {
		m := FatTreeMetric(n)
		if !sameMetric(m, FatTreeRacks(n).Metric()) {
			t.Fatalf("n=%d: metric after eviction differs from a fresh build", n)
		}
		if got := cachedRackCounts(); got > fatTreeMetricCacheSize {
			t.Fatalf("cache grew to %d rack counts, bound is %d", got, fatTreeMetricCacheSize)
		}
	}
}

func TestFatTreeMetricRejectsNoRacks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FatTreeMetric(0) did not panic")
		}
	}()
	FatTreeMetric(0)
}
