package figures

import (
	"testing"

	"obm/internal/sim"
)

// Steady-state allocation guards for the figure drivers: after a warm-up
// run, repeating an experiment must not rebuild algorithm state — instances
// are memoized per b and recycled via Reseed/Reset, replay goes through the
// shared scratch buffers, so what remains is only the per-curve result
// assembly (a few slice headers per curve). Before instance memoization
// Fig1a sat at ~536 KB and ~106 allocs per run; the bounds here are far
// below that and fail loudly if per-pair state tables creep back into the
// steady state.
func testFigureSteadyStateAllocs(t *testing.T, id string, maxAllocs float64) {
	t.Helper()
	fig, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	cfg, specs, err := fig.Build(0.02, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := sim.RunExperiment(cfg, specs, 1); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up: construct and memoize the per-b instances
	run()
	if avg := testing.AllocsPerRun(3, run); avg > maxAllocs {
		t.Errorf("%s steady-state allocs = %.0f/run, want <= %.0f", id, avg, maxAllocs)
	}
}

func TestFig1aSteadyStateAllocs(t *testing.T) {
	testFigureSteadyStateAllocs(t, "fig1a", 64)
}

func TestFig1bSteadyStateAllocs(t *testing.T) {
	testFigureSteadyStateAllocs(t, "fig1b", 64)
}
