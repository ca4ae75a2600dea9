package sim

import (
	"testing"

	"obm/internal/core"
	"obm/internal/graph"
	"obm/internal/trace"
)

// Compiled replay must produce exactly the curves Run produces, both for
// algorithms with a ServeCompiled fast path (R-BMA, BMA) and for fallback
// algorithms replayed through Serve (GreedyNoEvict).
func TestRunCompiledMatchesRun(t *testing.T) {
	const n = 20
	top := graph.FatTreeRacks(n)
	model := core.CostModel{Metric: top.Metric(), Alpha: 30}
	tr, err := trace.FacebookStyle(trace.FacebookPreset(trace.Database, n, 3))
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.Prefix(20000)
	ct, err := tr.Compile(model.Metric.Dist)
	if err != nil {
		t.Fatal(err)
	}
	checkpoints := Checkpoints(tr.Len(), 7)

	algs := map[string]func() (core.Algorithm, error){
		"r-bma": func() (core.Algorithm, error) { return core.NewRBMA(n, 4, model, 5) },
		"r-bma-eager": func() (core.Algorithm, error) {
			return core.NewRBMA(n, 4, model, 5, core.WithEagerRemoval())
		},
		"bma":            func() (core.Algorithm, error) { return core.NewBMA(n, 4, model) },
		"oblivious":      func() (core.Algorithm, error) { return core.NewOblivious(model) },
		"so-bma":         func() (core.Algorithm, error) { return core.NewStaticFromTrace(tr, 4, model) },
		"greedy-noevict": func() (core.Algorithm, error) { return core.NewGreedyNoEvict(n, 4, model) },
	}
	for name, mk := range algs {
		t.Run(name, func(t *testing.T) {
			a1, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			plain, err := Run(a1, tr, model.Alpha, checkpoints)
			if err != nil {
				t.Fatal(err)
			}
			a2, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			var compiled RunResult
			if err := replayCompiled(&compiled, a2, ct, model.Alpha, checkpoints); err != nil {
				t.Fatal(err)
			}
			if _, fast := core.Algorithm(a2).(core.CompiledServer); !fast && name != "greedy-noevict" {
				t.Errorf("%s lost its ServeCompiled fast path", name)
			}
			if plain.Adds != compiled.Adds || plain.Removals != compiled.Removals ||
				plain.FinalMatchingSize != compiled.FinalMatchingSize {
				t.Fatalf("step totals diverged: plain %+v, compiled %+v", plain, compiled)
			}
			for i := range plain.Series.X {
				if plain.Series.X[i] != compiled.Series.X[i] ||
					plain.Series.Routing[i] != compiled.Series.Routing[i] ||
					plain.Series.Reconfig[i] != compiled.Series.Reconfig[i] {
					t.Fatalf("checkpoint %d diverged: plain (%d,%v,%v), compiled (%d,%v,%v)",
						i, plain.Series.X[i], plain.Series.Routing[i], plain.Series.Reconfig[i],
						compiled.Series.X[i], compiled.Series.Routing[i], compiled.Series.Reconfig[i])
				}
			}
		})
	}
}

// The sequential and parallel experiment runners must agree curve-for-curve
// on the compiled path.
func TestRunExperimentParallelMatchesSequentialCompiled(t *testing.T) {
	const n = 16
	top := graph.FatTreeRacks(n)
	model := core.CostModel{Metric: top.Metric(), Alpha: 30}
	tr := trace.MicrosoftStyle(n, 12000, 9)
	cfg := Config{
		Name:        "parity",
		Trace:       tr,
		Model:       model,
		Bs:          []int{2, 4},
		Reps:        2,
		Checkpoints: Checkpoints(tr.Len(), 5),
	}
	specs := []AlgSpec{
		{
			Name:   "r-bma",
			FixedB: -1,
			New: func(b int, rep uint64) (core.Algorithm, error) {
				return core.NewRBMA(n, b, model, rep*7+uint64(b))
			},
		},
		{
			Name:   "bma",
			FixedB: -1,
			New:    func(b int, rep uint64) (core.Algorithm, error) { return core.NewBMA(n, b, model) },
		},
	}
	seq, err := RunExperiment(cfg, specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunExperiment(cfg, specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Curves) != len(par.Curves) {
		t.Fatalf("curve counts differ: %d vs %d", len(seq.Curves), len(par.Curves))
	}
	for i := range seq.Curves {
		s, p := seq.Curves[i], par.Curves[i]
		if s.Alg != p.Alg || s.B != p.B {
			t.Fatalf("curve %d identity differs: %s(b=%d) vs %s(b=%d)", i, s.Alg, s.B, p.Alg, p.B)
		}
		for j := range s.Avg.Routing {
			if s.Avg.Routing[j] != p.Avg.Routing[j] || s.Avg.Reconfig[j] != p.Avg.Reconfig[j] {
				t.Fatalf("curve %s(b=%d) point %d differs", s.Alg, s.B, j)
			}
		}
	}
}
