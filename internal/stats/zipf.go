package stats

import "math"

// Zipf samples ranks from a finite Zipf (power-law) distribution:
// P(X = i) ∝ (i+1)^(-s) for i in [0, n). Any exponent s >= 0 is supported
// (s = 0 degenerates to uniform). Sampling is O(1) via an alias table.
type Zipf struct {
	alias *Alias
}

// NewZipf builds a Zipf sampler over n ranks with exponent s.
// It panics if n <= 0 or s < 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: NewZipf with non-positive n")
	}
	if s < 0 {
		panic("stats: NewZipf with negative exponent")
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
	}
	return &Zipf{alias: NewAlias(w)}
}

// Sample draws one rank in [0, n).
func (z *Zipf) Sample(r *Rand) int { return z.alias.Sample(r) }
