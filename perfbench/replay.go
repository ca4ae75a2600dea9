package main

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"obm/internal/obs"
	"obm/internal/sim"
	"obm/internal/trace"
)

// replay-uni1024: sim.RunGrid on one uniform spec at 1024 racks, b = 16,
// two switch planes, GridOptions{Workers: 1, Parallel: 2} — the
// `experiments grid` path. The decision core evicts rather than hits here
// (a 523k-pair universe), and the parallel scatter and fold are on the
// path. No engine, HTTP or disk.

const (
	repRacks  = 1024
	repB      = 16
	repShards = 2
	repAlpha  = 30
	repReps   = 2
	// repRSSCalls is how many calls peak_rss_mb covers. Each call's cost
	// model stays reachable from core's k_e table cache, so a run that
	// made more calls would read as more memory; a fixed count keeps a
	// faster replay from reading as a memory regression.
	repRSSCalls = 6
)

// replaySpec is the workload's one spec: repReps grid jobs (algorithm
// seeds 0..repReps-1) over one cost model per RunGrid call.
func replaySpec(cfg config) sim.ScenarioSpec {
	requests := 1 << 22
	if cfg.tiny {
		requests = 1 << 14
	}
	return sim.ScenarioSpec{
		Name: "replay-uni1024", Family: "uniform",
		Racks: repRacks, Requests: requests, Seed: cfg.seed,
		Alpha: repAlpha, Bs: []int{repB}, Algs: []string{"r-bma"}, Reps: repReps, Shards: repShards,
	}
}

func runReplay(cfg config) (*result, error) {
	res := newResult()
	spec := replaySpec(cfg)
	reg := obs.NewRegistry()
	met := sim.NewMetrics(reg)

	// Set-up: validate the spec, then one small grid run (which builds the
	// cost model) so lazily built shared state — the pair index, the
	// parallel replay's scratch — exists before timing.
	setupS, err := setupMedian(func() error {
		if err := spec.Validate(); err != nil {
			return err
		}
		warm := spec
		warm.Requests = 1 << 12
		_, err := sim.RunGrid([]sim.ScenarioSpec{warm}, sim.GridOptions{Workers: 1, Parallel: repShards})
		return err
	}, func() {})
	if err != nil {
		return nil, err
	}

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	// Jobs run one after another (Workers: 1), so a job's latency is the
	// time from the previous job's end, or the call's start, to its own.
	var (
		win      windows
		rss      float64
		outcomes []sim.JobOutcome // by call, then rep
		reps     []int
		mu       sync.Mutex
		lastEnd  time.Time
		jobUs    []float64 // the current call's job latencies
	)
	opt := sim.GridOptions{
		Workers: 1, Parallel: repShards, Metrics: met,
		Persist: func(j sim.GridJob, o sim.JobOutcome) error {
			mu.Lock()
			outcomes = append(outcomes, o)
			reps = append(reps, j.Rep)
			mu.Unlock()
			return nil
		},
		Progress: func(_, _ int, _ sim.GridJob, _ error) {
			now := time.Now()
			mu.Lock()
			jobUs = append(jobUs, float64(now.Sub(lastEnd))/1e3)
			lastEnd = now
			mu.Unlock()
		},
	}
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		traced := tracedWindow(cfg, i)
		jobUs = jobUs[:0]
		t0 := time.Now()
		lastEnd = t0
		_, err := sim.RunGrid([]sim.ScenarioSpec{spec}, opt)
		t1 := time.Now()
		res.attempted++
		if err != nil {
			res.failed++
			res.check(fmt.Errorf("replay-uni1024: RunGrid: %w", err))
			break
		}
		if i+1 == repRSSCalls {
			rss = peakRSSMB()
		}
		win.add(traced, int64(repReps*spec.Requests), t1.Sub(t0))
		if traced {
			rec.add(0, 0, "sim.run_grid", t0, t1)
		} else {
			win.addLatencies(jobUs)
		}
	}
	elapsed := time.Since(start)

	// Check, outside the timed region: every job's outcome must equal a
	// sequential shadow pass of the same job.
	var sh shadow
	want := make([]sim.Counters, repReps)
	for rep := range want {
		if want[rep], err = shadowJob(&sh, spec, "r-bma", repB, rep, rec); err != nil {
			return nil, err
		}
	}
	if cfg.wrongRef {
		want[0].Routing++
	}
	for i, o := range outcomes {
		w := want[reps[i]]
		if math.Float64bits(o.Routing) != math.Float64bits(w.Routing) ||
			math.Float64bits(o.Reconfig) != math.Float64bits(w.Reconfig) {
			res.check(fmt.Errorf("replay-uni1024: call %d rep %d: RunGrid (%v, %v) != sequential shadow pass (%v, %v)",
				i/repReps, reps[i], o.Routing, o.Reconfig, w.Routing, w.Reconfig))
			break
		}
	}
	if len(outcomes) != repReps*(res.attempted-res.failed) {
		res.check(fmt.Errorf("replay-uni1024: %d outcomes persisted for %d successful calls", len(outcomes), res.attempted-res.failed))
	}

	res.e2e["setup_s"] = metric{setupS, "s"}
	res.e2e["mreq_s"] = metric{median(win.untraced), "Mreq/s"}
	win.latencyMetrics(res.e2e)
	if rss == 0 {
		rss = peakRSSMB()
	}
	res.e2e["peak_rss_mb"] = metric{rss, "MiB"}
	fmt.Printf("replay-uni1024: %d RunGrid calls of %d jobs × %d requests over %.2fs\n",
		res.attempted, repReps, spec.Requests, elapsed.Seconds())
	if !cfg.trace {
		return res, nil
	}

	n := float64(sh.requests)
	nextNs, feedNs := float64(sh.nextNs)/n, float64(sh.feedNs)/n
	a := &attribution{
		workload: cfg.workload, requests: win.tracedReqs, wallNs: int64(win.tracedWall), threads: repShards,
		tracedMreqS: median(win.traced), untracedMreqS: median(win.untraced),
	}
	// RunGrid builds the cost model once per call, for repReps jobs.
	a.rows = []attrRow{
		{"graph.metric", float64(sh.modelNs) / repReps / n, "shadow ScenarioSpec.Model, once per call"},
		{"trace.next", nextNs, "shadow trace.Source.Next"},
		{"core.feed", feedNs, "shadow sim.Incremental.FeedChunk"},
	}
	fold := reg.Histogram("obm_grid_fold_seconds", "", 1e-9).Summary()
	l := res.layer
	l["trace.next_ns_per_req"] = metric{nextNs, "ns"}
	l["core.feed_ns_per_req"] = metric{feedNs, "ns"}
	l["core.adds_per_kreq"] = metric{float64(sh.adds) / n * 1e3, "count"}
	l["core.removals_per_kreq"] = metric{float64(sh.removals) / n * 1e3, "count"}
	l["graph.metric_ms"] = metric{float64(sh.modelNs) / repReps / 1e6, "ms"}
	l["sim.parallel_efficiency"] = metric{(nextNs + feedNs) / a.capacityNsPerReq(), "ratio"}
	l["sim.fold_us_p50"] = metric{float64(fold.P50) / 1e3, "us"}
	a.metrics(l)
	res.attr = a
	res.spans = rec
	return res, nil
}

// shadow totals a sequential pass over grid jobs: requests, matching
// changes, and the time spent building each job's cost model, in
// Source.Next and in FeedChunk.
type shadow struct {
	requests                int64
	adds, removals          int64
	modelNs, nextNs, feedNs int64
}

// shadowJob replays one (alg, b, rep) job of spec sequentially through
// sim.Incremental, the way RunGrid builds it, adds it to sh (spans when
// rec is non-nil) and returns its final counters.
func shadowJob(sh *shadow, spec sim.ScenarioSpec, alg string, b, rep int, rec *recorder) (sim.Counters, error) {
	t0 := time.Now()
	model := spec.Model()
	t1 := time.Now()
	st, err := spec.NewStream()
	if err != nil {
		return sim.Counters{}, err
	}
	src, err := trace.NewSource(st, model.Metric.Dist)
	if err != nil {
		return sim.Counters{}, err
	}
	a, err := spec.BuildAlgorithm(alg, b, uint64(rep))
	if err != nil {
		return sim.Counters{}, err
	}
	sh.modelNs += int64(t1.Sub(t0))
	rec.add(0, 0, "graph.metric", t0, t1)

	inc := sim.NewIncremental(a, spec.Normalize().Alpha)
	chunk := trace.NewChunk(0)
	for {
		t0 := time.Now()
		n, err := src.Next(chunk)
		t1 := time.Now()
		if err == io.EOF {
			break
		}
		if err != nil {
			return sim.Counters{}, err
		}
		inc.FeedChunk(chunk.Reqs[:n])
		t2 := time.Now()
		sh.nextNs += int64(t1.Sub(t0))
		sh.feedNs += int64(t2.Sub(t1))
		rec.add(0, 0, "trace.next", t0, t1)
		rec.add(0, 0, "core.feed_chunk", t1, t2)
	}
	c := inc.Counters()
	sh.requests += c.Served
	sh.adds += int64(c.Adds)
	sh.removals += int64(c.Removals)
	return c, nil
}
