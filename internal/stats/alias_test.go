package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAliasMatchesWeights(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a := NewAlias(weights)
	r := NewRand(100)
	const draws = 400000
	counts := make([]float64, len(weights))
	for i := 0; i < draws; i++ {
		counts[a.Sample(r)]++
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		got := counts[i] / draws
		want := w / total
		if math.Abs(got-want) > 0.005 {
			t.Errorf("index %d: frequency %v, want %v", i, got, want)
		}
	}
}

func TestAliasSingleton(t *testing.T) {
	a := NewAlias([]float64{5})
	r := NewRand(1)
	for i := 0; i < 100; i++ {
		if a.Sample(r) != 0 {
			t.Fatal("singleton alias must always return 0")
		}
	}
}

func TestAliasZeroWeightNeverSampled(t *testing.T) {
	a := NewAlias([]float64{0, 1, 0, 2})
	r := NewRand(2)
	for i := 0; i < 10000; i++ {
		v := a.Sample(r)
		if v == 0 || v == 2 {
			t.Fatalf("sampled zero-weight index %d", v)
		}
	}
}

func TestAliasPanics(t *testing.T) {
	cases := [][]float64{nil, {}, {-1, 2}, {0, 0}}
	for _, w := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAlias(%v): expected panic", w)
				}
			}()
			NewAlias(w)
		}()
	}
}

func TestAliasSampleInRange(t *testing.T) {
	r := NewRand(3)
	if err := quick.Check(func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		w := make([]float64, len(raw))
		var sum float64
		for i, v := range raw {
			w[i] = float64(v)
			sum += w[i]
		}
		if sum == 0 {
			return true
		}
		a := NewAlias(w)
		for i := 0; i < 32; i++ {
			v := a.Sample(r)
			if v < 0 || v >= len(w) || w[v] == 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(100, 1.2)
	r := NewRand(4)
	const draws = 200000
	counts := make([]float64, 100)
	for i := 0; i < draws; i++ {
		counts[z.Sample(r)]++
	}
	if counts[0] <= counts[50] {
		t.Fatal("Zipf must favor low ranks")
	}
	want := zipfWeights(100, 1.2)
	got0 := counts[0] / draws
	if math.Abs(got0-want[0]) > 0.01 {
		t.Fatalf("rank-0 frequency %v, want %v", got0, want[0])
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z := NewZipf(10, 0)
	r := NewRand(5)
	counts := make([]float64, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Sample(r)]++
	}
	for i, c := range counts {
		if math.Abs(c/draws-0.1) > 0.01 {
			t.Errorf("rank %d frequency %v, want 0.1", i, c/draws)
		}
	}
}

func TestZipfWeightsNormalized(t *testing.T) {
	w := zipfWeights(57, 0.9)
	var sum float64
	for _, x := range w {
		sum += x
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum to %v", sum)
	}
	for i := 1; i < len(w); i++ {
		if w[i] > w[i-1] {
			t.Fatal("weights must be non-increasing")
		}
	}
}

func TestZipfPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewZipf(0, 1) },
		func() { NewZipf(10, -0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// zipfWeights returns the normalized probability vector of a Zipf
// distribution over n ranks with exponent s.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}
