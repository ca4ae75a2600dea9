package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"obm/internal/core"
	"obm/internal/graph"
	"obm/internal/trace"
)

func testSetup(n int) (core.CostModel, *trace.Trace) {
	top := graph.FatTreeRacks(n)
	model := core.CostModel{Metric: top.Metric(), Alpha: 30}
	tr, _ := trace.FacebookStyle(trace.FacebookPreset(trace.Database, n, 5))
	return model, tr.Prefix(20000)
}

func TestCheckpoints(t *testing.T) {
	cps := Checkpoints(100, 4)
	want := []int{25, 50, 75, 100}
	for i := range want {
		if cps[i] != want[i] {
			t.Fatalf("Checkpoints = %v", cps)
		}
	}
	if got := Checkpoints(3, 10); len(got) != 3 {
		t.Fatalf("Checkpoints should clamp num to total: %v", got)
	}
}

func TestCheckpointsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Checkpoints(0, 5)
}

func TestRunProducesMonotoneCurves(t *testing.T) {
	model, tr := testSetup(12)
	alg, err := core.NewRBMA(12, 3, model, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(alg, tr, model.Alpha, Checkpoints(tr.Len(), 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series.X) != 10 {
		t.Fatalf("got %d checkpoints", len(res.Series.X))
	}
	for i := 1; i < len(res.Series.X); i++ {
		if res.Series.Routing[i] < res.Series.Routing[i-1] {
			t.Fatal("routing cost must be non-decreasing")
		}
		if res.Series.Reconfig[i] < res.Series.Reconfig[i-1] {
			t.Fatal("reconfig cost must be non-decreasing")
		}
	}
	if res.Adds == 0 {
		t.Fatal("R-BMA should reconfigure on a skewed trace")
	}
	if res.FinalMatchingSize == 0 {
		t.Fatal("final matching empty")
	}
}

func TestRunRejectsBadCheckpoints(t *testing.T) {
	model, tr := testSetup(10)
	alg, _ := core.NewOblivious(model)
	if _, err := Run(alg, tr, model.Alpha, []int{10, 10}); err == nil {
		t.Fatal("non-ascending checkpoints accepted")
	}
	if _, err := Run(alg, tr, model.Alpha, []int{tr.Len() + 1}); err == nil {
		t.Fatal("checkpoint beyond trace accepted")
	}
}

func TestRunAveragedAveragesOverSeeds(t *testing.T) {
	model, tr := testSetup(10)
	f := func(rep uint64) (core.Algorithm, error) {
		return core.NewRBMA(10, 3, model, rep)
	}
	avg, err := runAveraged(f, 3, &RunResult{}, func(res *RunResult, alg core.Algorithm) error {
		r, err := Run(alg, tr, model.Alpha, Checkpoints(tr.Len(), 5))
		*res = r
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg.Reps != 3 || len(avg.Routing) != 5 {
		t.Fatalf("avg = %+v", avg)
	}
	if avg.Routing[4] <= 0 {
		t.Fatal("averaged routing cost should be positive")
	}
}

func TestRunExperimentAndCSV(t *testing.T) {
	model, tr := testSetup(10)
	cfg := Config{
		Name:        "unit",
		Trace:       tr,
		Model:       model,
		Bs:          []int{2, 4},
		Reps:        2,
		Checkpoints: Checkpoints(tr.Len(), 4),
	}
	specs := []AlgSpec{
		{
			Name:   "r-bma",
			FixedB: -1,
			New: func(b int, rep uint64) (core.Algorithm, error) {
				return core.NewRBMA(10, b, model, rep)
			},
		},
		{
			Name:   "oblivious",
			FixedB: 0,
			New: func(b int, rep uint64) (core.Algorithm, error) {
				return core.NewOblivious(model)
			},
		},
	}
	res, err := RunExperiment(cfg, specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	// r-bma at b=2 and b=4, oblivious once.
	if len(res.Curves) != 3 {
		t.Fatalf("curves = %d, want 3", len(res.Curves))
	}
	finals := res.FinalRouting()
	if finals["r-bma(b=4)"] >= finals["oblivious(b=0)"] {
		t.Fatalf("r-bma (%v) should beat oblivious (%v)",
			finals["r-bma(b=4)"], finals["oblivious(b=0)"])
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "experiment,alg,b,requests") {
		t.Fatal("CSV header missing")
	}
	if lines := strings.Count(out, "\n"); lines != 1+3*4 {
		t.Fatalf("CSV has %d lines, want 13", lines)
	}
	if rows := res.SummaryRows(); len(rows) != 3 {
		t.Fatalf("summary rows = %d", len(rows))
	}
}

func TestWriteJSON(t *testing.T) {
	model, tr := testSetup(10)
	cfg := Config{
		Name: "json", Trace: tr, Model: model,
		Bs: []int{2}, Reps: 1, Checkpoints: Checkpoints(tr.Len(), 3),
	}
	specs := []AlgSpec{{
		Name: "r-bma", FixedB: -1,
		New: func(b int, rep uint64) (core.Algorithm, error) {
			return core.NewRBMA(10, b, model, rep)
		},
	}}
	res, err := RunExperiment(cfg, specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Name   string `json:"experiment"`
		Curves []struct {
			Alg     string    `json:"alg"`
			B       int       `json:"b"`
			Routing []float64 `json:"routing_cost"`
		} `json:"curves"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Name != "json" || len(parsed.Curves) != 1 || len(parsed.Curves[0].Routing) != 3 {
		t.Fatalf("parsed = %+v", parsed)
	}
}

func TestRunExperimentValidation(t *testing.T) {
	model, tr := testSetup(10)
	if _, err := RunExperiment(Config{Name: "x", Trace: tr, Model: model, Bs: []int{2}}, nil, 1); err == nil {
		t.Fatal("Reps=0 accepted")
	}
	if _, err := RunExperiment(Config{Name: "x", Trace: tr, Model: model, Reps: 1}, nil, 1); err == nil {
		t.Fatal("empty b sweep accepted")
	}
}

func TestASCIIChartRenders(t *testing.T) {
	model, tr := testSetup(10)
	cfg := Config{
		Name: "chart", Trace: tr, Model: model,
		Bs: []int{2}, Reps: 1, Checkpoints: Checkpoints(tr.Len(), 6),
	}
	specs := []AlgSpec{{
		Name:   "r-bma",
		FixedB: -1,
		New: func(b int, rep uint64) (core.Algorithm, error) {
			return core.NewRBMA(10, b, model, rep)
		},
	}}
	res, err := RunExperiment(cfg, specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	chart := ASCIIChart("routing", res.Curves, 40, 10,
		func(a Averaged, i int) float64 { return a.Routing[i] })
	if !strings.Contains(chart, "r-bma(b=2)") {
		t.Fatalf("chart missing legend:\n%s", chart)
	}
	if !strings.Contains(chart, "*") {
		t.Fatalf("chart missing data points:\n%s", chart)
	}
	empty := ASCIIChart("empty", nil, 40, 10, func(a Averaged, i int) float64 { return 0 })
	if !strings.Contains(empty, "no data") {
		t.Fatal("empty chart should say so")
	}
}
