package report_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"obm/internal/report"
	"obm/internal/sim"
)

func TestWriteReportMarkdown(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st := runShard(t, dir, smallSpecs(), 6, report.Shard{})
	defer st.Close()

	var buf bytes.Buffer
	if err := st.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	md := buf.String()
	for _, want := range []string{
		"# Run report:",
		"| spec hash |",
		"## uni",
		"## phase",
		"Family `uniform`",
		"| algorithm | b |",
		"| r-bma | 2 |",
		"| oblivious | 0 |",
		"```text", // the ASCII cost chart (CurvePoints > 0)
		"cumulative routing cost",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("report missing %q:\n%s", want, md)
		}
	}
	if strings.Contains(md, "Incomplete run") {
		t.Error("complete store rendered as incomplete")
	}
}

func TestWriteReportIncompleteAndChartless(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	// CurvePoints = 0: no charts; one appended job out of five: incomplete.
	st, err := report.Create(dir, newManifest(t, smallSpecs(), 0, report.Shard{}))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	j := sim.GridJob{Scenario: "uni", Alg: "r-bma", B: 2, Rep: 0}
	if err := st.Append(j, sim.JobOutcome{Routing: 10, Reconfig: 2}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	md := buf.String()
	if !strings.Contains(md, "Incomplete run") {
		t.Error("partial store not flagged incomplete")
	}
	if strings.Contains(md, "```text") {
		t.Error("chart rendered without recorded curves")
	}
	// The one recorded cell still renders a table row.
	if !strings.Contains(md, "| r-bma | 2 |") {
		t.Errorf("recorded cell missing from tables:\n%s", md)
	}
}

func TestWriteSummaryCSVShape(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st := runShard(t, dir, smallSpecs(), 0, report.Shard{})
	defer st.Close()
	res, err := st.Result()
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := report.WriteSummaryCSV(&a, res); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteSummaryCSV(&b, res); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("summary CSV not deterministic")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if lines[0] != "scenario,family,alg,b,racks,requests,reps,"+
		"routing_mean,routing_std,reconfig_mean,reconfig_std,total_mean,total_std" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 1+len(res.Rows) {
		t.Fatalf("%d lines for %d rows", len(lines), len(res.Rows))
	}
	if strings.Contains(a.String(), "elapsed") {
		t.Fatal("summary CSV must not carry wall-time columns")
	}
}

// TestStoreArtifactModes: every file a finished, rendered run leaves in
// its store is 0644 — the atomically written manifest and rendered
// artifacts as much as the append-only job log — and no temp file of an
// atomic write is left behind.
func TestStoreArtifactModes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st := runShard(t, dir, smallSpecs(), 6, report.Shard{})
	defer st.Close()
	if _, _, err := st.Render(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file %s left behind", e.Name())
		}
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if perm := info.Mode().Perm(); perm != 0o644 {
			t.Errorf("%s has mode %v, want 0644", e.Name(), perm)
		}
		seen[e.Name()] = true
	}
	for _, name := range []string{"manifest.json", "jobs.jsonl", "summary.csv", "report.md"} {
		if !seen[name] {
			t.Errorf("%s missing from the store", name)
		}
	}
}
