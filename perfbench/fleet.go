package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"obm/internal/obs"
	"obm/internal/report"
	"obm/internal/serve"
	"obm/internal/sim"
	"obm/internal/work"
)

// fleet-grid: submit → fleet drain → summary.csv. A coordinator-only
// serve.Server (ShardSize 2) on a loopback http.Server takes one Submit of
// the four paper families × {r-bma, bma, oblivious} × b ∈ {4, 8}; two
// work.Runners (Capacity 1, GridWorkers 1, checkpointing on) drain it
// until the job is done, and the summary is fetched over HTTP. Every drain
// gets a fresh store root, or the resubmission would be a cache hit.

const (
	fleetRacks      = 32
	fleetWorkers    = 2
	fleetShardSize  = 2
	fleetCheckpoint = 50_000
	fleetPoll       = 2 * time.Millisecond
	// spanHeader carries a client span id to the handler, so the handler's
	// span is recorded as the round trip's child.
	spanHeader = "X-Perfbench-Span"
)

var fleetFamilies = []string{"uniform", "facebook-database", "microsoft", "phase-shift"}

func fleetSpecs(cfg config) []sim.ScenarioSpec {
	requests := 100_000
	if cfg.tiny {
		requests = 4_000
	}
	specs := make([]sim.ScenarioSpec, len(fleetFamilies))
	for i, fam := range fleetFamilies {
		specs[i] = sim.ScenarioSpec{
			Name: fam, Family: fam, Racks: fleetRacks, Requests: requests,
			Seed: cfg.seed + uint64(i), Bs: []int{4, 8},
			Algs: []string{"r-bma", "bma", "oblivious"}, Reps: 1,
		}
	}
	return specs
}

// fleetTally accumulates what every drain of a run observed.
type fleetTally struct {
	mu       sync.Mutex
	shardRTT []float64 // the current untraced drain's lease request → complete response, us
	failed   int       // transport errors and non-2xx answers
	attempts int       // HTTP round trips, Submit calls
}

func (t *fleetTally) op(failed bool) {
	t.mu.Lock()
	t.attempts++
	if failed {
		t.failed++
	}
	t.mu.Unlock()
}

// tracingTransport wraps one client's round trips: it counts them, and
// for a traced drain records a span per round trip (named by route) whose
// id travels to the handler in spanHeader. For a worker it also derives
// the shard time — lease answer to complete request — and the shard round
// trip the worker sees — lease request to complete answer.
type tracingTransport struct {
	base   http.RoundTripper
	rec    *recorder
	tally  *fleetTally
	worker bool

	mu         sync.Mutex
	leaseStart time.Time
	leaseEnd   time.Time
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	route := routeOf(req.Method, req.URL.Path)
	id := t.rec.newID()
	if id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	t0 := time.Now()
	if t.worker && route == "complete" {
		t.mu.Lock()
		t.rec.add(0, 0, "work.shard", t.leaseEnd, t0)
		t.mu.Unlock()
	}
	resp, err := t.base.RoundTrip(req)
	t1 := time.Now()
	if err != nil && req.Context().Err() != nil {
		// A poll the benchmark cancelled once the job was done: not an
		// operation of the drain.
		return resp, err
	}
	t.tally.op(err != nil || resp.StatusCode >= 300)
	t.rec.add(id, 0, "work.http."+route, t0, t1)
	if err == nil && t.worker {
		t.mu.Lock()
		switch {
		case route == "lease" && resp.StatusCode == http.StatusOK:
			t.leaseStart, t.leaseEnd = t0, t1
		case route == "complete" && t.rec == nil:
			t.tally.mu.Lock()
			t.tally.shardRTT = append(t.tally.shardRTT, float64(t1.Sub(t.leaseStart))/1e3)
			t.tally.mu.Unlock()
		}
		t.mu.Unlock()
	}
	return resp, err
}

// routeOf names a coordinator route.
func routeOf(method, path string) string {
	switch {
	case method == http.MethodGet && path == "/api/v1/jobs":
		return "list"
	case strings.HasSuffix(path, "/lease"):
		return "lease"
	case strings.HasSuffix(path, "/heartbeat"):
		return "heartbeat"
	case strings.HasSuffix(path, "/complete"):
		return "complete"
	case strings.HasSuffix(path, "/summary.csv"):
		return "summary"
	case path == "/healthz":
		return "health"
	}
	return "other"
}

// drain is one coordinator, its HTTP server and two workers, on a fresh
// store root.
type drain struct {
	srv       *serve.Server
	reg       *obs.Registry
	hs        *http.Server
	serveDone chan error
	url       string
	runners   []*work.Runner
	clients   []*http.Client
	bench     *http.Client
	completed chan struct{}
}

func newDrain(root string, rec *recorder, tally *fleetTally, workerReg *obs.Registry) (*drain, error) {
	d := &drain{reg: obs.NewRegistry(), completed: make(chan struct{}, 1)}
	srv, err := serve.New(serve.Options{
		StoreRoot: filepath.Join(root, "coordinator"), Workers: -1,
		ShardSize: fleetShardSize, Registry: d.reg,
	})
	if err != nil {
		return nil, err
	}
	d.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	inner := srv.Handler()
	d.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		route := routeOf(r.Method, r.URL.Path)
		t0 := time.Now()
		inner.ServeHTTP(w, r)
		rec.add(0, parent, "serve."+route, t0, time.Now())
		if route == "complete" {
			select {
			case d.completed <- struct{}{}:
			default:
			}
		}
	})}
	d.serveDone = make(chan error, 1)
	go func() { d.serveDone <- d.hs.Serve(ln) }()

	client := func(worker bool) *http.Client {
		return &http.Client{Transport: &tracingTransport{
			base: &http.Transport{MaxIdleConnsPerHost: 4}, rec: rec, tally: tally, worker: worker,
		}}
	}
	d.bench = client(false)
	for i := 0; i < fleetWorkers; i++ {
		c := client(true)
		r, err := work.New(work.Options{
			Coordinator: d.url, Name: fmt.Sprintf("w%d", i),
			Capacity: 1, GridWorkers: 1, CheckpointEvery: fleetCheckpoint,
			Dir: filepath.Join(root, fmt.Sprintf("w%d", i)), Poll: fleetPoll,
			HTTPClient: c, Registry: workerReg,
		})
		if err != nil {
			d.close()
			return nil, err
		}
		d.runners = append(d.runners, r)
		d.clients = append(d.clients, c)
	}
	// The fleet is up once the coordinator answers.
	resp, err := d.bench.Get(d.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		d.close()
		return nil, fmt.Errorf("coordinator health check: %w", err)
	}
	return d, nil
}

func (d *drain) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx)
	<-d.serveDone
	d.srv.Shutdown(ctx)
	for _, c := range append(d.clients, d.bench) {
		c.CloseIdleConnections()
	}
}

// run submits specs, lets the workers drain the job and fetches the
// summary; it returns the summary and the drain's wall time.
func (d *drain) run(specs []sim.ScenarioSpec, rec *recorder, tally *fleetTally) ([]byte, time.Duration, error) {
	drainID := rec.newID()
	t0 := time.Now()
	defer func() { rec.add(drainID, 0, "fleet.drain", t0, time.Now()) }()

	s0 := time.Now()
	st, err := d.srv.Submit(specs)
	rec.add(0, drainID, "serve.submit", s0, time.Now())
	tally.op(err != nil)
	if err != nil {
		return nil, 0, fmt.Errorf("submit: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, r := range d.runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Run(ctx)
		}()
	}
	err = d.wait(st.ID)
	cancel()
	wg.Wait()
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequest(http.MethodGet, d.url+"/api/v1/jobs/"+st.ID+"/summary.csv", nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := d.bench.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("summary.csv: HTTP %d: %s", resp.StatusCode, body)
	}
	return body, time.Since(t0), nil
}

// wait blocks until the job is done, waking on every absorbed upload.
func (d *drain) wait(id string) error {
	timeout := time.NewTimer(2 * time.Minute)
	defer timeout.Stop()
	for {
		st, ok := d.srv.Job(id)
		switch {
		case !ok:
			return fmt.Errorf("job %.12s vanished", id)
		case st.State == serve.StateDone:
			return nil
		case st.State == serve.StateFailed:
			return fmt.Errorf("job %.12s failed: %s", id, st.Error)
		}
		select {
		case <-d.completed:
		case <-timeout.C:
			return fmt.Errorf("job %.12s not done after 2m (%d/%d)", id, st.Done, st.Total)
		}
	}
}

func runFleet(cfg config) (*result, error) {
	res := newResult()
	specs := fleetSpecs(cfg)
	plan, err := sim.PlanGrid(specs)
	if err != nil {
		return nil, err
	}
	requests := int64(len(plan.Jobs) * specs[0].Requests)

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var (
		tally     fleetTally
		win       windows
		workerReg = obs.NewRegistry()
		counts    = map[string]uint64{}
		summaries [][]byte
		drainWall time.Duration // traced drains
		shards    int           // untraced drains' shard samples
	)
	// Set-up: plan the grid, compute the summary a direct sim.RunGrid
	// renders (the reference every drain is checked against), and bring up
	// the first drain. Every later drain pays its own bring-up outside the
	// timed region.
	var (
		want  []byte
		first *drain
		roots int
	)
	root := func() string {
		roots++
		return filepath.Join(cfg.dir, fmt.Sprintf("drain%d", roots))
	}
	setupS, err := setupMedian(func() (err error) {
		if _, err = sim.PlanGrid(specs); err != nil {
			return err
		}
		if want, err = directSummary(specs); err != nil {
			return err
		}
		first, err = newDrain(root(), nil, &tally, workerReg)
		return err
	}, func() { first.close() })
	if err != nil {
		return nil, err
	}

	start := time.Now()
	deadline := start.Add(cfg.seconds)
	for i := 0; i < setupReps || time.Now().Before(deadline); i++ {
		traced := tracedWindow(cfg, i)
		drec := (*recorder)(nil)
		if traced {
			drec = rec
		}
		d := first
		if i > 0 {
			if d, err = newDrain(root(), drec, &tally, workerReg); err != nil {
				return nil, err
			}
		}
		summary, wall, err := d.run(specs, drec, &tally)
		d.close()
		if err != nil {
			res.check(fmt.Errorf("fleet-grid: drain %d: %w", i, err))
			break
		}
		for _, name := range []string{
			"obm_serve_wal_appends_total", "obm_serve_absorbed_records_total", "obm_serve_leases_granted_total",
			"obm_serve_leases_expired_total", "obm_serve_absorb_conflicts_total", "obm_serve_uploads_rejected_total",
		} {
			counts[name] += d.reg.Counter(name, "").Value()
		}
		win.add(traced, requests, wall)
		if !traced {
			win.addLatencies(tally.shardRTT)
			shards += len(tally.shardRTT)
		}
		tally.shardRTT = tally.shardRTT[:0]
		if traced {
			drainWall += wall
		}
		summaries = append(summaries, summary)
	}
	elapsed := time.Since(start)
	drains := len(summaries)
	if drains == 0 {
		return nil, fmt.Errorf("no drain finished")
	}

	// Check, outside the timed region: every served summary.csv must be
	// byte-identical to a direct sim.RunGrid of the same specs.
	if cfg.wrongRef {
		want = append(want, '\n')
	}
	for i, got := range summaries {
		if !bytes.Equal(got, want) {
			res.check(fmt.Errorf("fleet-grid: drain %d: summary.csv differs from direct RunGrid:\n%s\nwant:\n%s", i, got, want))
			break
		}
	}

	// Failures: non-2xx answers and transport errors, plus what the
	// coordinator and workers count as failed (absorb conflicts, rejected
	// uploads, expired leases, failed uploads, lost leases).
	failedOps := uint64(tally.failed)
	for _, name := range []string{"obm_serve_leases_expired_total", "obm_serve_absorb_conflicts_total", "obm_serve_uploads_rejected_total"} {
		failedOps += counts[name]
	}
	for _, name := range []string{"obm_work_upload_errors_total", "obm_work_lease_lost_total"} {
		failedOps += workerReg.Counter(name, "").Value()
	}
	res.attempted = tally.attempts
	res.failed = int(failedOps)

	res.e2e["setup_s"] = metric{setupS, "s"}
	res.e2e["mreq_s"] = metric{median(win.untraced), "Mreq/s"}
	win.latencyMetrics(res.e2e)
	res.e2e["peak_rss_mb"] = metric{peakRSSMB(), "MiB"}
	fmt.Printf("fleet-grid: %d drains of %d grid jobs (%d requests) over %.2fs, %d shard samples\n",
		drains, len(plan.Jobs), requests, elapsed.Seconds(), shards)
	if !cfg.trace {
		return res, nil
	}

	// Shadow pass: every grid job sequentially, trace generation and the
	// decision core timed apart.
	var sh shadow
	for _, spec := range specs {
		for _, alg := range spec.Algs {
			for _, b := range spec.Bs {
				if _, err := shadowJob(&sh, spec, alg, b, 0, rec); err != nil {
					return nil, err
				}
			}
		}
	}
	times := selfTimes(rec.snapshot())
	tracedDrains := len(win.traced)
	tracedReqs := float64(win.tracedReqs)
	perReq := func(ns int64) float64 { return float64(ns) / tracedReqs }
	layerSelf := func(prefix string) int64 {
		var sum int64
		for name, lt := range times {
			if strings.HasPrefix(name, prefix) {
				sum += lt.self
			}
		}
		return sum
	}
	durs := func(name string) []float64 {
		if lt := times[name]; lt != nil {
			return durationsUs(lt.durs)
		}
		return nil
	}
	nextNs := float64(sh.nextNs) / float64(sh.requests)
	feedNs := float64(sh.feedNs) / float64(sh.requests)
	shardNs := perReq(layerSelf("work.shard"))
	a := &attribution{
		workload: cfg.workload, requests: win.tracedReqs, wallNs: int64(drainWall), threads: fleetWorkers,
		tracedMreqS: median(win.traced), untracedMreqS: median(win.untraced),
	}
	a.rows = []attrRow{
		{"serve.submit", perReq(layerSelf("serve.submit")), "Server.Submit"},
		{"serve.handlers", perReq(layerSelf("serve.") - layerSelf("serve.submit")), "Handler() by route, self"},
		{"work.http", perReq(layerSelf("work.http.")), "HTTPClient round trip − handler"},
		{"trace.next", nextNs, "shadow trace.Source.Next"},
		{"core.feed", feedNs, "shadow sim.Incremental.FeedChunk"},
		{"work.shard_other", shardNs - nextNs - feedNs, "lease answer → complete request − trace − core"},
	}
	var httpSelf, httpN int64
	for name, lt := range times {
		if strings.HasPrefix(name, "work.http.") {
			httpSelf += lt.self
			httpN += int64(lt.count)
		}
	}
	saves := workerReg.Histogram("obm_grid_checkpoint_save_seconds", "", 1e-9).Summary()
	l := res.layer
	l["trace.next_ns_per_req"] = metric{nextNs, "ns"}
	l["core.feed_ns_per_req"] = metric{feedNs, "ns"}
	l["core.adds_per_kreq"] = metric{float64(sh.adds) / float64(sh.requests) * 1e3, "count"}
	l["core.removals_per_kreq"] = metric{float64(sh.removals) / float64(sh.requests) * 1e3, "count"}
	l["serve.submit_ms"] = metric{mean(durs("serve.submit")) / 1e3, "ms"}
	l["serve.lease_us_p50"] = metric{quantile(durs("serve.lease"), 0.5), "us"}
	l["serve.lease_us_p99"] = metric{quantile(durs("serve.lease"), 0.99), "us"}
	l["serve.list_us_p50"] = metric{quantile(durs("serve.list"), 0.5), "us"}
	l["serve.complete_ms_p50"] = metric{quantile(durs("serve.complete"), 0.5) / 1e3, "ms"}
	l["serve.complete_ms_p99"] = metric{quantile(durs("serve.complete"), 0.99) / 1e3, "ms"}
	l["work.http_overhead_us"] = metric{float64(httpSelf) / float64(max(1, httpN)) / 1e3, "us"}
	l["work.shard_ms_p50"] = metric{quantile(durs("work.shard"), 0.5) / 1e3, "ms"}
	l["work.idle_frac"] = metric{1 - float64(timesTotal(times, "work.shard"))/(fleetWorkers*float64(drainWall)), "ratio"}
	l["snap.checkpoint_save_ms_p50"] = metric{float64(saves.P50) / 1e6, "ms"}
	l["serve.wal_appends"] = metric{float64(counts["obm_serve_wal_appends_total"]) / float64(drains), "count"}
	l["serve.absorbed_records"] = metric{float64(counts["obm_serve_absorbed_records_total"]) / float64(drains), "count"}
	l["serve.leases_granted"] = metric{float64(counts["obm_serve_leases_granted_total"]) / float64(drains), "count"}
	a.metrics(l)
	fmt.Printf("fleet-grid: %d traced drains\n", tracedDrains)
	res.attr = a
	res.spans = rec
	return res, nil
}

func timesTotal(times map[string]*layerTimes, name string) int64 {
	if lt := times[name]; lt != nil {
		return lt.total
	}
	return 0
}

// directSummary runs specs through sim.RunGrid directly, with the
// service's curve-point default, and renders the summary the service
// serves.
func directSummary(specs []sim.ScenarioSpec) ([]byte, error) {
	g, err := sim.RunGrid(specs, sim.GridOptions{Workers: 1, CurvePoints: 10})
	if err != nil {
		return nil, fmt.Errorf("direct RunGrid: %w", err)
	}
	var buf bytes.Buffer
	if err := report.WriteSummaryCSV(&buf, g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
