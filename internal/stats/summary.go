package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (0 for fewer than 2 items).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Gini returns the Gini coefficient of the non-negative values in xs:
// 0 = perfectly uniform, →1 = maximally skewed. Used to quantify the spatial
// skew of traffic matrices. Returns 0 for empty or all-zero input.
func Gini(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var cum, total float64
	for i, x := range s {
		cum += float64(i+1) * x
		total += x
	}
	if total == 0 {
		return 0
	}
	return (2*cum/(float64(n)*total) - float64(n+1)/float64(n))
}

// Summary is the aggregate of one metric over a set of repetitions: the
// row format of the scenario-grid runner. The zero value is the summary of
// an empty sample.
type Summary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"` // population standard deviation
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// Summarize aggregates xs into a Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Mean: Mean(xs), Std: StdDev(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs[1:] {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	return s
}

// MeanStd renders the summary as "mean ± std" in compact scientific
// notation — the cell format of rendered report tables. An empty summary
// renders as "-".
func (s Summary) MeanStd() string {
	if s.N == 0 {
		return "-"
	}
	if s.N == 1 || s.Std == 0 {
		return fmt.Sprintf("%.4g", s.Mean)
	}
	return fmt.Sprintf("%.4g ± %.2g", s.Mean, s.Std)
}

// Entropy returns the Shannon entropy (bits) of a discrete distribution
// given by non-negative weights (not necessarily normalized).
// Returns 0 for empty or all-zero input.
func Entropy(weights []float64) float64 {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, w := range weights {
		if w > 0 {
			p := w / total
			h -= p * math.Log2(p)
		}
	}
	return h
}
