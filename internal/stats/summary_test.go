package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if m := Mean(xs); m != 3 {
		t.Fatalf("Mean = %v", m)
	}
	if v := Variance(xs); !approx(v, 2, 1e-12) {
		t.Fatalf("Variance = %v", v)
	}
	if s := StdDev(xs); !approx(s, math.Sqrt2, 1e-12) {
		t.Fatalf("StdDev = %v", s)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty input should give 0")
	}
}

func TestGiniUniform(t *testing.T) {
	xs := []float64{2, 2, 2, 2}
	if g := Gini(xs); !approx(g, 0, 1e-12) {
		t.Fatalf("Gini uniform = %v, want 0", g)
	}
}

func TestGiniSkewed(t *testing.T) {
	xs := make([]float64, 100)
	xs[0] = 1 // all mass on one element
	g := Gini(xs)
	if g < 0.95 {
		t.Fatalf("Gini of point mass = %v, want near 1", g)
	}
}

func TestGiniMonotoneInSkew(t *testing.T) {
	flat := Gini(zipfWeights(50, 0.2))
	steep := Gini(zipfWeights(50, 1.5))
	if steep <= flat {
		t.Fatalf("Gini should grow with skew: flat=%v steep=%v", flat, steep)
	}
}

func TestEntropyUniform(t *testing.T) {
	w := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	if h := Entropy(w); !approx(h, 3, 1e-12) {
		t.Fatalf("Entropy uniform-8 = %v, want 3 bits", h)
	}
}

func TestEntropyPointMass(t *testing.T) {
	if h := Entropy([]float64{0, 7, 0}); !approx(h, 0, 1e-12) {
		t.Fatalf("Entropy point mass = %v, want 0", h)
	}
}

func TestEntropyBounds(t *testing.T) {
	if err := quick.Check(func(raw []uint8) bool {
		w := make([]float64, len(raw))
		for i, v := range raw {
			w[i] = float64(v)
		}
		h := Entropy(w)
		if h < 0 {
			return false
		}
		if len(w) > 0 && h > math.Log2(float64(len(w)))+1e-9 {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBurstChainStationary(t *testing.T) {
	c := NewBurstChain(0.4, 8)
	r := NewRand(21)
	c.Reset(r)
	const n = 400000
	on := 0
	for i := 0; i < n; i++ {
		if c.Step(r) {
			on++
		}
	}
	p := float64(on) / n
	if math.Abs(p-0.4) > 0.02 {
		t.Fatalf("stationary ON fraction = %v, want ~0.4", p)
	}
}

func TestBurstChainBurstLength(t *testing.T) {
	c := NewBurstChain(0.5, 20)
	r := NewRand(22)
	c.Reset(r)
	var bursts, onSteps int
	prev := c.On()
	for i := 0; i < 500000; i++ {
		cur := c.Step(r)
		if cur {
			onSteps++
			if !prev {
				bursts++
			}
		}
		prev = cur
	}
	if bursts == 0 {
		t.Fatal("no bursts observed")
	}
	avg := float64(onSteps) / float64(bursts)
	if avg < 15 || avg > 25 {
		t.Fatalf("average burst length = %v, want ~20", avg)
	}
}

func TestBurstChainNeverOnWhenPZero(t *testing.T) {
	c := NewBurstChain(0, 5)
	r := NewRand(23)
	c.Reset(r)
	for i := 0; i < 1000; i++ {
		if c.Step(r) {
			t.Fatal("chain with pOn=0 entered ON state")
		}
	}
}

func TestBurstChainPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewBurstChain(-0.1, 5) },
		func() { NewBurstChain(1.0, 5) },
		func() { NewBurstChain(0.5, 0.5) },
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

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("Summarize = %+v", s)
	}
	if want := StdDev([]float64{4, 1, 3, 2}); s.Std != want {
		t.Fatalf("Std = %v, want %v", s.Std, want)
	}
	if z := Summarize(nil); z != (Summary{}) {
		t.Fatalf("empty Summarize = %+v", z)
	}
	one := Summarize([]float64{7})
	if one.N != 1 || one.Mean != 7 || one.Std != 0 || one.Min != 7 || one.Max != 7 {
		t.Fatalf("single-sample Summarize = %+v", one)
	}
}
