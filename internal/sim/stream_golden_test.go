package sim

import (
	"context"
	"reflect"
	"testing"

	"obm/internal/core"
	"obm/internal/graph"
	"obm/internal/trace"
)

// The streamed-replay golden suite: chunked Source replay must yield
// bit-identical cost curves to the materialized path (replayCompiled) on
// every golden trace family, for every chunk size, through both the
// generator-backed streaming source and the materialized adapter. Together
// with core's golden table (which pins the materialized path to the seed
// implementations) this pins the streamed path to the paper's exact costs.

const streamGoldenAlpha = 30

// goldenStreams mirrors core's golden trace families, each as a stream
// constructor plus its materialized twin.
func goldenStreams(t *testing.T) []struct {
	name   string
	stream func() (trace.Stream, error)
	mat    func() (*trace.Trace, error)
} {
	t.Helper()
	fb := trace.FacebookPreset(trace.Database, 40, 7)
	fb.Requests = 20000
	return []struct {
		name   string
		stream func() (trace.Stream, error)
		mat    func() (*trace.Trace, error)
	}{
		{
			name:   "facebook",
			stream: func() (trace.Stream, error) { return trace.NewFacebookStream(fb) },
			mat:    func() (*trace.Trace, error) { return trace.FacebookStyle(fb) },
		},
		{
			name:   "microsoft",
			stream: func() (trace.Stream, error) { return trace.NewMicrosoftStream(30, 20000, 3) },
			mat:    func() (*trace.Trace, error) { return trace.MicrosoftStyle(30, 20000, 3), nil },
		},
		{
			name:   "uniform",
			stream: func() (trace.Stream, error) { return trace.NewUniformStream(30, 16000, 5) },
			mat:    func() (*trace.Trace, error) { return trace.Uniform(30, 16000, 5), nil },
		},
		{
			name:   "phaseshift",
			stream: func() (trace.Stream, error) { return trace.NewPhaseShiftStream(30, 16000, 4, 11) },
			mat:    func() (*trace.Trace, error) { return trace.PhaseShift(30, 16000, 4, 11) },
		},
	}
}

// sameCurves compares everything that must be bit-identical between two
// replays (wall time excepted).
func sameCurves(t *testing.T, label string, got, want *RunResult) {
	t.Helper()
	if !reflect.DeepEqual(got.Series.X, want.Series.X) ||
		!reflect.DeepEqual(got.Series.Routing, want.Series.Routing) ||
		!reflect.DeepEqual(got.Series.Reconfig, want.Series.Reconfig) {
		t.Errorf("%s: cost curves differ from materialized replay", label)
	}
	if got.Adds != want.Adds || got.Removals != want.Removals {
		t.Errorf("%s: reconfiguration counts (%d,%d) != (%d,%d)",
			label, got.Adds, got.Removals, want.Adds, want.Removals)
	}
	if got.FinalMatchingSize != want.FinalMatchingSize {
		t.Errorf("%s: final matching size %d != %d", label, got.FinalMatchingSize, want.FinalMatchingSize)
	}
}

func TestStreamedReplayMatchesMaterialized(t *testing.T) {
	newAlg := func(name string, n int, model core.CostModel) core.Algorithm {
		t.Helper()
		var (
			alg core.Algorithm
			err error
		)
		switch name {
		case "rbma":
			alg, err = core.NewRBMA(n, 6, model, 1)
		case "bma":
			alg, err = core.NewBMA(n, 6, model)
		}
		if err != nil {
			t.Fatal(err)
		}
		return alg
	}
	for _, fam := range goldenStreams(t) {
		t.Run(fam.name, func(t *testing.T) {
			mat, err := fam.mat()
			if err != nil {
				t.Fatal(err)
			}
			n := mat.NumRacks
			model := core.CostModel{Metric: graph.FatTreeRacks(n).Metric(), Alpha: streamGoldenAlpha}
			ct, err := mat.Compile(model.Metric.Dist)
			if err != nil {
				t.Fatal(err)
			}
			cps := Checkpoints(mat.Len(), 8)
			for _, algName := range []string{"rbma", "bma"} {
				var want RunResult
				if err := replayCompiled(&want, newAlg(algName, n, model), ct, model.Alpha, cps); err != nil {
					t.Fatal(err)
				}
				for _, chunkSize := range []int{1, 997, 8192, mat.Len() + 1} {
					// Generator-backed streaming source: trace generated,
					// compiled and replayed chunk by chunk.
					st, err := fam.stream()
					if err != nil {
						t.Fatal(err)
					}
					src, err := trace.NewSource(st, model.Metric.Dist)
					if err != nil {
						t.Fatal(err)
					}
					got, err := RunSource(newAlg(algName, n, model), src, model.Alpha, cps, chunkSize)
					if err != nil {
						t.Fatal(err)
					}
					label := fam.name + "/" + algName + "/stream"
					sameCurves(t, label, &got, &want)

					// Materialized adapter: same compiled trace read as a
					// source.
					got, err = RunSource(newAlg(algName, n, model), ct.Source(), model.Alpha, cps, chunkSize)
					if err != nil {
						t.Fatal(err)
					}
					sameCurves(t, fam.name+"/"+algName+"/adapter", &got, &want)
				}
			}
		})
	}
}

// TestRunAveragedSourceMatchesCompiled pins the repetition-averaged
// streamed path (source Reset per repetition) to the materialized
// averaged path.
func TestRunAveragedSourceMatchesCompiled(t *testing.T) {
	fb := trace.FacebookPreset(trace.Database, 20, 9)
	fb.Requests = 8000
	mat, err := trace.FacebookStyle(fb)
	if err != nil {
		t.Fatal(err)
	}
	model := core.CostModel{Metric: graph.FatTreeRacks(20).Metric(), Alpha: streamGoldenAlpha}
	ct, err := mat.Compile(model.Metric.Dist)
	if err != nil {
		t.Fatal(err)
	}
	f := func(rep uint64) (core.Algorithm, error) {
		return core.NewRBMA(20, 4, model, rep)
	}
	cps := Checkpoints(mat.Len(), 5)
	want, err := runAveraged(f, 3, &RunResult{}, func(res *RunResult, alg core.Algorithm) error {
		return replayCompiled(res, alg, ct, model.Alpha, cps)
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := trace.NewFacebookStream(fb)
	if err != nil {
		t.Fatal(err)
	}
	src, err := trace.NewSource(st, model.Metric.Dist)
	if err != nil {
		t.Fatal(err)
	}
	chunk := trace.NewChunk(4096)
	got, err := runAveraged(f, 3, &RunResult{}, func(res *RunResult, alg core.Algorithm) error {
		return replay(context.Background(), res, alg, src, model.Alpha, cps, chunk, ckHooks{}, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.X, want.X) ||
		!reflect.DeepEqual(got.Routing, want.Routing) ||
		!reflect.DeepEqual(got.Reconfig, want.Reconfig) {
		t.Fatal("averaged streamed curves differ from materialized")
	}
}
