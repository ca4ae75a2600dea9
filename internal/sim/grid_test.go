package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"obm/internal/core"
)

func testGridSpecs() []ScenarioSpec {
	return []ScenarioSpec{
		{
			Name: "hot", Family: "hotspot",
			Racks: 12, Requests: 6000, Seed: 1,
			Bs: []int{2, 3}, Reps: 2,
			Params: map[string]float64{"migrate_every": 1000},
		},
		{
			Name: "mix", Family: "tenant-mix",
			Racks: 12, Requests: 6000, Seed: 2,
			Bs: []int{2}, Reps: 2,
			Params: map[string]float64{"tenants": 3},
			Algs:   []string{"r-bma", "oblivious"},
		},
	}
}

func TestRunGridAggregatesCells(t *testing.T) {
	var mu sync.Mutex
	var calls int
	res, err := RunGrid(testGridSpecs(), GridOptions{
		Workers:   3,
		ChunkSize: 512,
		Progress: func(done, total int, job GridJob, err error) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if err != nil {
				t.Errorf("job %s failed: %v", job, err)
			}
			if total != 14 {
				t.Errorf("job %s reported total = %d, want 14", job, total)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// hot: r-bma b∈{2,3}, bma b∈{2,3}, oblivious b=0 → 5 cells; mix:
	// r-bma b=2, oblivious b=0 → 2 cells.
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(res.Rows))
	}
	// hot: 5 cells × 2 reps; mix: 2 cells × 2 reps.
	if calls != 14 {
		t.Fatalf("progress callbacks = %d, want 14", calls)
	}
	for _, r := range res.Rows {
		if r.Routing.N != 2 {
			t.Errorf("row %s/%s(b=%d): reps = %d, want 2", r.Scenario, r.Alg, r.B, r.Routing.N)
		}
		if r.Routing.Mean <= 0 {
			t.Errorf("row %s/%s(b=%d): routing mean %v", r.Scenario, r.Alg, r.B, r.Routing.Mean)
		}
		if r.Total.Mean < r.Routing.Mean {
			t.Errorf("row %s/%s(b=%d): total < routing", r.Scenario, r.Alg, r.B)
		}
	}
	// Deterministic row order: specs in input order, algorithms in
	// line-up order.
	if res.Rows[0].Scenario != "hot" || res.Rows[5].Scenario != "mix" {
		t.Fatalf("row order: %+v", res.Rows)
	}
	// Demand-aware beats oblivious on the skewed hotspot workload.
	var rbma, obl float64
	for _, r := range res.Rows {
		if r.Scenario != "hot" {
			continue
		}
		switch {
		case r.Alg == "r-bma" && r.B == 3:
			rbma = r.Routing.Mean
		case r.Alg == "oblivious":
			obl = r.Routing.Mean
		}
	}
	if rbma == 0 || obl == 0 || rbma >= obl {
		t.Fatalf("r-bma (%v) should beat oblivious (%v) on hotspot", rbma, obl)
	}
}

// TestRunGridDeterministic: two runs with different worker counts must
// produce identical rows — jobs own their sources and seeds, so schedule
// order cannot leak into results.
func TestRunGridDeterministic(t *testing.T) {
	a, err := RunGrid(testGridSpecs(), GridOptions{Workers: 1, ChunkSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGrid(testGridSpecs(), GridOptions{Workers: 4, ChunkSize: 8192})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		rb.ElapsedMS = ra.ElapsedMS // wall time legitimately differs
		if ra != rb {
			t.Fatalf("row %d differs across schedules:\n%+v\n%+v", i, ra, rb)
		}
	}
}

func TestRunGridValidation(t *testing.T) {
	if _, err := RunGrid(nil, GridOptions{}); err == nil {
		t.Fatal("empty grid accepted")
	}
	bad := testGridSpecs()
	bad[0].Family = "no-such-family"
	if _, err := RunGrid(bad, GridOptions{}); err == nil {
		t.Fatal("unknown family accepted")
	}
	bad = testGridSpecs()
	bad[0].Algs = []string{"no-such-alg"}
	if _, err := RunGrid(bad, GridOptions{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	bad = testGridSpecs()
	bad[1].Name = bad[0].Name
	if _, err := RunGrid(bad, GridOptions{}); err == nil {
		t.Fatal("duplicate scenario name accepted")
	}
	bad = testGridSpecs()
	bad[0].Params["typo_knob"] = 1
	if _, err := RunGrid(bad, GridOptions{}); err == nil {
		t.Fatal("unknown family param accepted")
	}
	bad = testGridSpecs()
	bad[0].Name = "comma,name"
	if _, err := RunGrid(bad, GridOptions{}); err == nil {
		t.Fatal("CSV-breaking scenario name accepted")
	}
}

func TestGridOutputFormats(t *testing.T) {
	res, err := RunGrid(testGridSpecs()[:1], GridOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	out := csv.String()
	if !strings.HasPrefix(out, "scenario,family,alg,b,") {
		t.Fatalf("CSV header missing:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 1+len(res.Rows) {
		t.Fatalf("CSV has %d lines, want %d", lines, 1+len(res.Rows))
	}
	var js bytes.Buffer
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Rows []struct {
			Scenario string `json:"scenario"`
			Routing  struct {
				N    int     `json:"n"`
				Mean float64 `json:"mean"`
			} `json:"routing_cost"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(js.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.Rows) != len(res.Rows) || parsed.Rows[0].Routing.N != 2 {
		t.Fatalf("parsed JSON = %+v", parsed)
	}
	if rows := res.SummaryRows(); len(rows) != len(res.Rows) {
		t.Fatalf("summary rows = %d", len(rows))
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	specs := testGridSpecs()
	data, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadScenarios(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(specs) || decoded[0].Name != "hot" || decoded[0].Params["migrate_every"] != 1000 {
		t.Fatalf("round trip = %+v", decoded)
	}
	if _, err := ReadScenarios(strings.NewReader(`[{"name":"x","bogus_field":1}]`)); err == nil {
		t.Fatal("unknown JSON field accepted")
	}
}

// TestValidateBoundsRacks: a rack count past maxRacks is rejected up
// front, with an error naming the limit, and validating even the largest
// allowed count builds no O(racks²) cost model.
func TestValidateBoundsRacks(t *testing.T) {
	spec := func(racks int) ScenarioSpec {
		return ScenarioSpec{Name: "big", Family: "uniform", Racks: racks, Requests: 1000, Bs: []int{2}}
	}
	for _, racks := range []int{maxRacks + 1, 1 << 20} {
		err := spec(racks).Validate()
		if err == nil || !strings.Contains(err.Error(), "4096") {
			t.Errorf("racks = %d: Validate() = %v, want an error naming the 4096 limit", racks, err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := spec(maxRacks).Validate(); err != nil {
		t.Fatalf("racks = %d: %v", maxRacks, err)
	}
	runtime.ReadMemStats(&after)
	// The metric alone would be 4·4096² bytes = 64 MiB.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("Validate at %d racks allocated %d bytes; it must not build the cost model", maxRacks, grew)
	}
}

func TestScenarioRegistry(t *testing.T) {
	if len(Families()) < 9 {
		t.Fatalf("families = %v", Families())
	}
	if len(Algorithms()) < 3 {
		t.Fatalf("algorithms = %v", Algorithms())
	}
	presets := Scenarios()
	if len(presets) < 6 {
		t.Fatalf("scenario presets = %d", len(presets))
	}
	for _, spec := range presets {
		if err := spec.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", spec.Name, err)
		}
	}
	if _, err := ScenarioByName(presets[0].Name); err != nil {
		t.Fatal(err)
	}
	if _, err := ScenarioByName("no-such-scenario"); err == nil {
		t.Fatal("unknown scenario name accepted")
	}
}

// failingSpec errors at every construction, so each (b) job of a parallel
// experiment fails independently.
func failingSpec() AlgSpec {
	return AlgSpec{
		Name:   "failing",
		FixedB: -1,
		New: func(b int, rep uint64) (core.Algorithm, error) {
			return nil, errors.New("boom")
		},
	}
}

func TestRunExperimentParallelJoinsAllErrors(t *testing.T) {
	model, tr := testSetup(10)
	cfg := Config{
		Name: "errs", Trace: tr, Model: model,
		Bs: []int{2, 3, 4}, Reps: 1, Checkpoints: Checkpoints(tr.Len(), 2),
	}
	_, err := RunExperiment(cfg, []AlgSpec{failingSpec()}, 2)
	if err == nil {
		t.Fatal("expected failure")
	}
	// With 3 failing jobs and feeding that stops after the first failure,
	// at least one and at most three errors surface — each must carry the
	// job identity, and all surfaced errors must be joined.
	msg := err.Error()
	if !strings.Contains(msg, "errs/failing(b=") || !strings.Contains(msg, "boom") {
		t.Fatalf("error lacks job context: %v", err)
	}
	if n := strings.Count(msg, "boom"); n < 1 || n > 3 {
		t.Fatalf("joined %d errors, want 1..3: %v", n, err)
	}
}

func TestRunGridJoinsErrorsAndStops(t *testing.T) {
	specs := []ScenarioSpec{{
		Name: "bad-b", Family: "uniform",
		Racks: 8, Requests: 1000, Seed: 1,
		Bs: []int{0}, Reps: 3, // b=0 makes NewRBMA fail per job
		Algs: []string{"r-bma"},
	}}
	var mu sync.Mutex
	ran, failed := 0, 0
	_, err := RunGrid(specs, GridOptions{Workers: 2, Progress: func(done, total int, job GridJob, jerr error) {
		mu.Lock()
		defer mu.Unlock()
		ran++
		if jerr != nil {
			failed++
		}
	}})
	if err == nil {
		t.Fatal("expected failure")
	}
	if !strings.Contains(err.Error(), "bad-b/r-bma(b=0)") {
		t.Fatalf("error lacks job identity: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran < 1 || ran > 3 {
		t.Fatalf("ran %d jobs of a failing scenario, want 1..3", ran)
	}
	if failed != ran {
		t.Fatalf("%d of %d jobs failed, want all", failed, ran)
	}
}

// TestRunGridContextCancel pins the cancellation contract: cancelling the
// context stops the grid promptly, every job Persist saw stays valid, the
// returned partial result aggregates exactly those jobs, and a resumed run
// (Lookup over the persisted outcomes) completes to a result identical to
// an uninterrupted run.
func TestRunGridContextCancel(t *testing.T) {
	specs := testGridSpecs()

	full, err := RunGrid(specs, GridOptions{Workers: 2, ChunkSize: 512})
	if err != nil {
		t.Fatalf("uninterrupted RunGrid: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	persisted := make(map[GridJob]JobOutcome)
	var mu sync.Mutex
	const stopAfter = 3
	partial, err := RunGridContext(ctx, specs, GridOptions{
		Workers:   1, // serialize so a deterministic number of jobs persist
		ChunkSize: 512,
		Persist: func(j GridJob, o JobOutcome) error {
			mu.Lock()
			defer mu.Unlock()
			persisted[j] = o
			if len(persisted) == stopAfter {
				cancel()
			}
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunGridContext error = %v, want context.Canceled", err)
	}
	if partial == nil {
		t.Fatal("cancelled RunGridContext returned nil partial result")
	}
	mu.Lock()
	n := len(persisted)
	mu.Unlock()
	if n >= 14 {
		t.Fatalf("cancellation did not stop the grid: %d of 14 jobs ran", n)
	}

	// Partial-but-persisted: resuming from the persisted outcomes must
	// reproduce the uninterrupted run exactly.
	resumed, err := RunGrid(specs, GridOptions{
		Workers:   2,
		ChunkSize: 512,
		Lookup: func(j GridJob) (JobOutcome, bool) {
			o, ok := persisted[j]
			return o, ok
		},
		Persist: func(j GridJob, o JobOutcome) error {
			if _, ok := persisted[j]; ok {
				t.Errorf("job %s re-executed despite being persisted", j)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("resumed RunGrid: %v", err)
	}
	var fullCSV, resumedCSV bytes.Buffer
	if err := full.WriteCSV(&fullCSV); err != nil {
		t.Fatal(err)
	}
	if err := resumed.WriteCSV(&resumedCSV); err != nil {
		t.Fatal(err)
	}
	// Wall-time columns differ between runs; compare the deterministic
	// prefix of every row (all columns before elapsed_ms_mean).
	trim := func(s string) string {
		var rows []string
		for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
			rows = append(rows, line[:strings.LastIndex(line, ",")])
		}
		return strings.Join(rows, "\n")
	}
	if got, want := trim(resumedCSV.String()), trim(fullCSV.String()); got != want {
		t.Errorf("resumed grid differs from uninterrupted run:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunGridContextCancelBeforeStart: a context cancelled before the grid
// starts executes nothing and still returns (empty) partial aggregation.
func TestRunGridContextCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	res, err := RunGridContext(ctx, testGridSpecs(), GridOptions{
		Persist: func(GridJob, JobOutcome) error { ran = true; return nil },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("a job persisted despite pre-cancelled context")
	}
	if res == nil || len(res.Rows) != 0 {
		t.Errorf("pre-cancelled grid result = %+v, want empty", res)
	}
}
