package figures

import (
	"testing"

	"obm/internal/sim"
)

func TestAllEnumeratesTwelveSubfigures(t *testing.T) {
	figs := All()
	if len(figs) != 12 {
		t.Fatalf("got %d sub-figures, want 12 (4 figures × a/b/c)", len(figs))
	}
	seen := map[string]bool{}
	for _, f := range figs {
		if seen[f.ID] {
			t.Fatalf("duplicate figure id %s", f.ID)
		}
		seen[f.ID] = true
	}
	for _, id := range []string{"fig1a", "fig2b", "fig3c", "fig4a"} {
		if !seen[id] {
			t.Fatalf("missing figure %s", id)
		}
	}
}

func TestByID(t *testing.T) {
	f, err := ByID("fig1a")
	if err != nil || f.ID != "fig1a" {
		t.Fatalf("ByID failed: %v", err)
	}
	if _, err := ByID("fig9z"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestBuildRejectsBadScale(t *testing.T) {
	f, _ := ByID("fig1a")
	if _, _, err := f.Build(0, 1, 1); err == nil {
		t.Fatal("scale 0 accepted")
	}
	if _, _, err := f.Build(1.5, 1, 1); err == nil {
		t.Fatal("scale > 1 accepted")
	}
}

func TestFig1aSmallScaleShape(t *testing.T) {
	// Smoke-run Figure 1a at tiny scale and verify the headline shape:
	// both online algorithms beat Oblivious, and R-BMA is within a modest
	// factor of BMA's routing cost.
	f, _ := ByID("fig1a")
	cfg, specs, err := f.Build(0.02, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunExperiment(cfg, specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	finals := res.FinalRouting()
	obl := finals["oblivious(b=0)"]
	r18 := finals["r-bma(b=18)"]
	b18 := finals["bma(b=18)"]
	if obl == 0 || r18 == 0 || b18 == 0 {
		t.Fatalf("missing curves: %v", finals)
	}
	if r18 >= obl || b18 >= obl {
		t.Fatalf("online algorithms should beat oblivious: %v", finals)
	}
	if r18 > 1.35*b18 || b18 > 1.35*r18 {
		t.Fatalf("R-BMA (%v) and BMA (%v) should be in the same ballpark", r18, b18)
	}
}

func TestFig4cStaticBeatsOnlineOnIID(t *testing.T) {
	// Microsoft trace is i.i.d.: the offline static matching has the
	// advantage (paper §3.2). Verify at small scale.
	f, _ := ByID("fig4c")
	cfg, specs, err := f.Build(0.01, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunExperiment(cfg, specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	finals := res.FinalRouting()
	so := finals["so-bma(b=9)"]
	rb := finals["r-bma(b=9)"]
	if so == 0 || rb == 0 {
		t.Fatalf("missing curves: %v", finals)
	}
	if so >= rb {
		t.Fatalf("SO-BMA (%v) should beat R-BMA (%v) on i.i.d. traffic", so, rb)
	}
}
