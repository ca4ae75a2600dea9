package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// The benchmark's smoke test: every workload at tiny sizes, untraced and
// traced. Run it from this directory with `go test .`.

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func tinyConfig(t *testing.T, workload string, traced bool) config {
	return config{
		workload: workload, seed: 7, seconds: 300 * time.Millisecond,
		trace: traced, tiny: true, dir: t.TempDir(),
	}
}

// TestDeclaredMetrics pins the metric tables to BENCHMARK.json.
func TestDeclaredMetrics(t *testing.T) {
	b := readBenchmark(t)
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end and %d per-layer metrics, the benchmark %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for _, m := range b.EndToEnd {
		if endToEnd[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, benchmark %q", m.Name, m.Unit, endToEnd[m.Name])
		}
	}
	for _, m := range b.PerLayer {
		if perLayer[m.Name] != m.Unit {
			t.Errorf("per-layer %s: BENCHMARK.json unit %q, benchmark %q", m.Name, m.Unit, perLayer[m.Name])
		}
	}
	for _, w := range b.Workloads {
		if workloads[w.Name].run == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}

// TestSmoke runs every workload untraced and traced: every declared
// metric is emitted with its unit, the output checks pass, nothing fails,
// and the end-to-end metrics are never 0.
func TestSmoke(t *testing.T) {
	b := readBenchmark(t)
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			res, line, err := measure(tinyConfig(t, w.Name, traced))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if line["correct"] != true {
				t.Errorf("%s trace=%v: checks failed: %v", w.Name, traced, res.checkErrs)
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.Name, traced, res.attempted, res.failed)
			}
			metrics := line["metrics"].(map[string]metric)
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, traced, len(metrics), len(want))
			}
			for _, m := range want {
				got, ok := metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v", w.Name, m.Name, got.Value)
				}
			}
			if traced && (res.attr == nil || res.spans.len() == 0) {
				t.Errorf("%s: traced run without attribution or spans", w.Name)
			}
		}
	}
}

// TestWrongReferenceFails proves each workload's output check can fail:
// against a deliberately wrong reference the run must report incorrect.
func TestWrongReferenceFails(t *testing.T) {
	for _, w := range readBenchmark(t).Workloads {
		cfg := tinyConfig(t, w.Name, false)
		cfg.wrongRef = true
		_, line, err := measure(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if line["correct"] != false {
			t.Errorf("%s: a wrong reference passed the checks", w.Name)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past the parent
	}
	times := selfTimes(spans)
	if got := times["parent"].self; got != 100-50-10 {
		t.Errorf("parent self time %d, want 40", got)
	}
	if got := times["child"].self; got != 30+30+30 {
		t.Errorf("child self time %d, want 90", got)
	}
}
