package report_test

import (
	"os"
	"path/filepath"
	"testing"

	"obm/internal/report"
	"obm/internal/sim"
)

func TestDiscover(t *testing.T) {
	root := t.TempDir()

	// An empty (or missing) root discovers nothing.
	if infos, err := report.Discover(root); err != nil || len(infos) != 0 {
		t.Fatalf("empty root: infos=%v err=%v", infos, err)
	}
	if infos, err := report.Discover(filepath.Join(root, "nope")); err != nil || len(infos) != 0 {
		t.Fatalf("missing root: infos=%v err=%v", infos, err)
	}

	specs := smallSpecs()
	m := newManifest(t, specs, 0, report.Shard{})
	dir := report.DirForHash(root, m.SpecHash)
	st, err := report.Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	// One completed job: the store is discoverable but incomplete.
	if err := st.Append(sim.GridJob{Scenario: "uni", Alg: "r-bma", B: 2, Rep: 0}, sim.JobOutcome{Routing: 1}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// A stray non-store directory and file must be skipped, not fail the scan.
	if err := os.MkdirAll(filepath.Join(root, "not-a-store"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "queue.json"), []byte("[]"), 0o644); err != nil {
		t.Fatal(err)
	}

	infos, err := report.Discover(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("discovered %d stores, want 1: %+v", len(infos), infos)
	}
	info := infos[0]
	if info.Dir != dir || info.Recorded != 1 || info.Complete() {
		t.Fatalf("info = %+v, want dir=%s recorded=1 incomplete", info, dir)
	}
	if info.Missing != info.Manifest.TotalJobs-1 {
		t.Fatalf("missing = %d, want %d", info.Missing, info.Manifest.TotalJobs-1)
	}

}
