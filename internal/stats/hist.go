package stats

import "math/bits"

// Histogram is a fixed-size log2-bucketed histogram in the HDR style:
// values (typically latencies in nanoseconds) land in one of 976 buckets —
// 16 exact buckets for values below 16, then 16 linear sub-buckets per
// power of two — giving a worst-case relative quantile error of 1/16
// (6.25%) over the full uint64 range. Everything is a fixed array, so
// Record is alloc-free and a Histogram embeds into long-lived structs
// (the engine's sessions) without indirection.
//
// Histograms merge by plain counter addition, so per-worker histograms
// fold into one without loss. A Histogram is not safe for concurrent use;
// callers serialize (the engine records under its per-session lock).
const (
	histSub     = 16 // linear sub-buckets per octave, and the exact range
	histBuckets = histSub + (64-4)*histSub
)

// Histogram records value counts. The zero value is an empty histogram
// ready for use.
type Histogram struct {
	counts   [histBuckets]uint64
	count    uint64
	sum      uint64
	min, max uint64
}

// histBucket maps a value to its bucket index.
func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v)            // 2^(e-1) <= v < 2^e, e >= 5
	sub := (v >> uint(e-5)) & 0xf // next 4 bits below the leading one
	return histSub + (e-5)*histSub + int(sub)
}

// histUpper returns the largest value mapping to bucket idx — the
// conservative representative Quantile reports.
func histUpper(idx int) uint64 {
	if idx < histSub {
		return uint64(idx)
	}
	e := (idx-histSub)/histSub + 5
	sub := uint64((idx - histSub) % histSub)
	lower := uint64(1)<<uint(e-1) + sub<<uint(e-5)
	return lower + 1<<uint(e-5) - 1
}

// Record adds one value. It never allocates.
func (h *Histogram) Record(v uint64) {
	h.counts[histBucket(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.count }

// Min and Max return the exact extremes of the recorded values (0 when
// empty).
func (h *Histogram) Min() uint64 { return h.min }
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the exact arithmetic mean of the recorded values (0 when
// empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) of the
// recorded values, within one bucket (relative error <= 1/16). It returns
// 0 for an empty histogram; Quantile(1) is clamped to the exact maximum.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(q*float64(h.count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			u := histUpper(i)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// Reset clears the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }
