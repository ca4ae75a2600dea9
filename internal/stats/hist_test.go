package stats

import (
	"math"
	"testing"
)

func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	for v := uint64(0); v < 16; v++ {
		h.Record(v)
	}
	if h.Count() != 16 {
		t.Fatalf("count = %d, want 16", h.Count())
	}
	// Values below histSub land in exact buckets, so quantiles are exact.
	if got := h.Quantile(0); got != 0 {
		t.Errorf("p0 = %d, want 0", got)
	}
	if got := h.Quantile(1); got != 15 {
		t.Errorf("p100 = %d, want 15", got)
	}
	// rank(0.5) = round(0.5·16) = 8, and the 8th smallest of 0..15 is 7.
	if got := h.Quantile(0.5); got != 7 {
		t.Errorf("p50 = %d, want 7", got)
	}
}

func TestHistogramBucketRoundTrip(t *testing.T) {
	// Every bucket's upper bound must map back to the same bucket, and
	// upper+1 to the next: the buckets tile the range with no gaps.
	for idx := 0; idx < histBuckets-1; idx++ {
		u := histUpper(idx)
		if got := histBucket(u); got != idx {
			t.Fatalf("bucket(upper(%d)) = %d", idx, got)
		}
		if got := histBucket(u + 1); got != idx+1 {
			t.Fatalf("bucket(upper(%d)+1) = %d, want %d", idx, got, idx+1)
		}
	}
}

func TestHistogramQuantileError(t *testing.T) {
	var h Histogram
	const n = 100000
	for v := uint64(1); v <= n; v++ {
		h.Record(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := float64(h.Quantile(q))
		want := q * n
		if got < want || got > want*(1+1.0/16)+1 {
			t.Errorf("q=%g: got %g, want in [%g, %g]", q, got, want, want*(1+1.0/16)+1)
		}
	}
	if h.Min() != 1 || h.Max() != n {
		t.Errorf("min/max = %d/%d, want 1/%d", h.Min(), h.Max(), n)
	}
	if mean := h.Mean(); math.Abs(mean-(n+1)/2) > 0.5 {
		t.Errorf("mean = %g, want %g", mean, float64(n+1)/2)
	}
}

func TestHistogramRecordAllocFree(t *testing.T) {
	var h Histogram
	v := uint64(12345)
	if allocs := testing.AllocsPerRun(100, func() {
		h.Record(v)
		v += 999
	}); allocs != 0 {
		t.Errorf("Record allocates %.1f times per call, want 0", allocs)
	}
}

func TestHistogramEmptyAndReset(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram not zero-valued")
	}
	h.Record(42)
	h.Reset()
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("reset histogram not empty")
	}
}
