package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"net"
	"time"

	"obm/internal/engine"
	"obm/internal/sim"
	"obm/internal/trace"
)

// engine-fb64: the live engine over loopback TCP. One DialIngest
// connection feeds one r-bma session (facebook-database, 64 racks, b = 8,
// α = 30) batches of 1024 requests at window 1: a closed loop, the next
// batch leaves only when the previous decision is back. The requests are
// generated in set-up and cycled, so no trace generation and no disk fall
// inside the timed region.

const (
	engRacks = 64
	engB     = 8
	engAlpha = 30
	engBatch = 1024
	// engWindow is one throughput window; mreq_s is the median window.
	engWindow = 250 * time.Millisecond
)

// engineEnv is one built set-up: the request pool and a live engine with
// the measured session, its twin, and the connection.
type engineEnv struct {
	spec     sim.ScenarioSpec
	pool     []trace.CompiledReq // the pool, compiled (for the core shadow pass)
	batches  [][]trace.Request   // the pool as wire batches (for Send)
	payloads [][]byte            // each batch's wire pairs (for the twin's FeedBinary)

	eng        *engine.Engine
	serveDone  chan error
	client     *engine.Client
	live, twin *engine.Session
}

func newEngineEnv(cfg config) (*engineEnv, error) {
	poolBatches := 1024
	if cfg.tiny {
		poolBatches = 16
	}
	spec := sim.ScenarioSpec{
		Name: "engine-fb64", Family: "facebook-database",
		Racks: engRacks, Requests: poolBatches * engBatch, Seed: cfg.seed,
		Alpha: engAlpha, Bs: []int{engB}, Algs: []string{"r-bma"},
	}
	src, err := spec.NewSource()
	if err != nil {
		return nil, err
	}
	comp, err := trace.DrainSource(src)
	if err != nil {
		return nil, err
	}
	env := &engineEnv{spec: spec, pool: comp.Reqs}
	for k := 0; k < poolBatches; k++ {
		reqs := comp.Reqs[k*engBatch : (k+1)*engBatch]
		batch := make([]trace.Request, len(reqs))
		payload := make([]byte, 8*len(reqs))
		for i, r := range reqs {
			batch[i] = trace.Request{Src: r.U, Dst: r.V}
			binary.LittleEndian.PutUint32(payload[8*i:], uint32(r.U))
			binary.LittleEndian.PutUint32(payload[8*i+4:], uint32(r.V))
		}
		env.batches = append(env.batches, batch)
		env.payloads = append(env.payloads, payload)
	}

	env.eng = engine.New(engine.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.eng.Close()
		return nil, err
	}
	env.serveDone = make(chan error, 1)
	go func() { env.serveDone <- env.eng.ServeIngest(ln) }()
	session := engine.SessionConfig{Racks: engRacks, B: engB, Alg: "r-bma", Alpha: engAlpha, Seed: cfg.seed}
	session.ID = "live"
	if env.live, err = env.eng.CreateSession(session); err != nil {
		env.close()
		return nil, err
	}
	session.ID = "twin"
	if env.twin, err = env.eng.CreateSession(session); err != nil {
		env.close()
		return nil, err
	}
	if env.client, _, err = engine.DialIngest(ln.Addr().String(), "live", 1); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

func (env *engineEnv) close() {
	if env.client != nil {
		env.client.Close()
	}
	env.eng.Close()
	<-env.serveDone
}

func runEngine(cfg config) (*result, error) {
	res := newResult()
	var env *engineEnv
	setupS, err := setupMedian(func() (err error) {
		env, err = newEngineEnv(cfg)
		return err
	}, func() { env.close() })
	if err != nil {
		return nil, err
	}
	defer env.close()

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var (
		win      windows
		rtts     []float64 // the current untraced window's batch round trips, us
		samples  int
		sendNs   int64 // traced windows' Σ Send
		sendN    int   // traced windows' batches
		batches  int
		last     engine.BatchResult
		digest   = newResultDigest()
		adds     int64
		removals int64
		sendErr  error
	)
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	nb := len(env.batches)
	for w := 0; sendErr == nil && (w < 2 || time.Now().Before(deadline)); w++ {
		traced := tracedWindow(cfg, w)
		wStart := time.Now()
		wEnd := wStart.Add(engWindow)
		var reqs int64
		rtts = rtts[:0]
		for sendErr == nil {
			batch := env.batches[batches%nb]
			t0 := time.Now()
			br, err := env.client.Send(batch)
			t1 := time.Now()
			res.attempted++
			if err != nil {
				res.failed++
				sendErr = err
				break
			}
			batches++
			last = *br
			digest.add(br)
			adds += int64(br.Adds)
			removals += int64(br.Removals)
			reqs += int64(len(batch))
			if traced {
				rec.add(0, 0, "engine.send", t0, t1)
				sendNs += int64(t1.Sub(t0))
				sendN++
			} else {
				rtts = append(rtts, float64(t1.Sub(t0))/1e3)
			}
			if !t1.Before(wEnd) {
				break
			}
		}
		win.add(traced, reqs, time.Since(wStart))
		if !traced {
			win.addLatencies(rtts)
			samples += len(rtts)
		}
	}
	elapsed := time.Since(start)
	if sendErr != nil {
		res.check(fmt.Errorf("engine-fb64: Send: %w", sendErr))
	}
	if batches == 0 {
		return nil, fmt.Errorf("no batch was served")
	}
	served := batches * engBatch

	// Checks, outside the timed region. The twin session is fed the same
	// batches through FeedBinary and must answer every one identically.
	twinNs, err := checkTwin(env, batches, digest, last, rec, cfg.wrongRef)
	res.check(err)
	// The cumulative costs must equal an offline sim.RunSource replay of
	// the served sequence: the loadgen -verify contract.
	res.check(checkOffline(env, served, last, cfg.wrongRef))

	res.e2e["setup_s"] = metric{setupS, "s"}
	res.e2e["mreq_s"] = metric{median(win.untraced), "Mreq/s"}
	win.latencyMetrics(res.e2e)
	res.e2e["peak_rss_mb"] = metric{peakRSSMB(), "MiB"}
	fmt.Printf("engine-fb64: %d requests in %d batches over %.2fs, %d RTT samples\n",
		served, batches, elapsed.Seconds(), samples)

	if !cfg.trace {
		return res, nil
	}
	// Core shadow pass: the same sequence through a bare sim.Incremental.
	coreNs, err := shadowCore(env, batches, rec)
	if err != nil {
		return nil, err
	}
	n := float64(batches)
	sendUs := float64(sendNs) / float64(max(1, sendN)) / 1e3
	twinUs := float64(twinNs) / n / 1e3
	coreUs := float64(coreNs) / n / 1e3
	lat := env.live.Latency()
	l := res.layer
	l["engine.wire_us_per_batch"] = metric{sendUs - twinUs, "us"}
	l["engine.session_ns_per_req"] = metric{(twinUs - coreUs) * 1e3 / engBatch, "ns"}
	l["engine.server_batch_us_p50"] = metric{float64(lat.P50) / 1e3, "us"}
	l["engine.server_batch_us_p99"] = metric{float64(lat.P99) / 1e3, "us"}
	l["core.feed_ns_per_req"] = metric{coreUs * 1e3 / engBatch, "ns"}
	l["core.adds_per_kreq"] = metric{float64(adds) / float64(served) * 1e3, "count"}
	l["core.removals_per_kreq"] = metric{float64(removals) / float64(served) * 1e3, "count"}

	a := &attribution{
		workload: cfg.workload, requests: win.tracedReqs, wallNs: int64(win.tracedWall), threads: 1,
		tracedMreqS: median(win.traced), untracedMreqS: median(win.untraced),
	}
	perReq := func(us float64) float64 { return us * 1e3 / engBatch }
	a.rows = []attrRow{
		{"engine.wire", perReq(sendUs - twinUs), "Send − twin FeedBinary"},
		{"engine.session", perReq(twinUs - coreUs), "twin FeedBinary − shadow FeedChunk"},
		{"core.feed", perReq(coreUs), "shadow sim.Incremental.FeedChunk"},
	}
	res.attr = a
	res.spans = rec
	a.metrics(l)
	return res, nil
}

// resultDigest folds a stream of batch results into one FNV-1a hash, so
// the twin check compares every batch without keeping them all.
type resultDigest struct {
	h   hash.Hash64
	buf [36]byte
}

func newResultDigest() *resultDigest { return &resultDigest{h: fnv.New64a()} }

func (d *resultDigest) add(r *engine.BatchResult) {
	binary.LittleEndian.PutUint64(d.buf[0:], r.Served)
	binary.LittleEndian.PutUint64(d.buf[8:], math.Float64bits(r.Routing))
	binary.LittleEndian.PutUint64(d.buf[16:], math.Float64bits(r.Reconfig))
	binary.LittleEndian.PutUint32(d.buf[24:], r.Adds)
	binary.LittleEndian.PutUint32(d.buf[28:], r.Removals)
	binary.LittleEndian.PutUint32(d.buf[32:], r.MatchingSize)
	d.h.Write(d.buf[:])
}

func (d *resultDigest) sum() uint64 { return d.h.Sum64() }

// checkTwin feeds the served batches, in order, to the twin session via
// FeedBinary and requires every result to equal the TCP session's (same
// digest over all batches, same last result). It returns the total
// FeedBinary time.
func checkTwin(env *engineEnv, batches int, want *resultDigest, last engine.BatchResult, rec *recorder, wrongRef bool) (int64, error) {
	var total int64
	var got engine.BatchResult
	digest := newResultDigest()
	for k := 0; k < batches; k++ {
		t0 := time.Now()
		if err := env.twin.FeedBinary(env.payloads[k%len(env.payloads)], &got); err != nil {
			return total, fmt.Errorf("engine-fb64: twin FeedBinary: %w", err)
		}
		t1 := time.Now()
		total += int64(t1.Sub(t0))
		rec.add(0, 0, "engine.feed_binary", t0, t1)
		digest.add(&got)
	}
	if wrongRef {
		last.Routing = math.Nextafter(last.Routing, math.Inf(1))
	}
	if digest.sum() != want.sum() || !sameResult(got, last) {
		return total, fmt.Errorf("engine-fb64: twin session results differ from the TCP session's (last batch: twin %+v, TCP %+v)", got, last)
	}
	return total, nil
}

func sameResult(a, b engine.BatchResult) bool {
	return a.Served == b.Served && a.Adds == b.Adds && a.Removals == b.Removals &&
		a.MatchingSize == b.MatchingSize &&
		math.Float64bits(a.Routing) == math.Float64bits(b.Routing) &&
		math.Float64bits(a.Reconfig) == math.Float64bits(b.Reconfig)
}

// checkOffline replays the served sequence offline and compares the final
// cumulative costs bit for bit.
func checkOffline(env *engineEnv, served int, final engine.BatchResult, wrongRef bool) error {
	alg, err := env.spec.BuildAlgorithm("r-bma", engB, env.spec.Seed)
	if err != nil {
		return err
	}
	src := &cycleSource{pool: env.pool, n: served, racks: engRacks, idx: trace.SharedPairIndex(engRacks)}
	run, err := sim.RunSource(alg, src, engAlpha, []int{served}, 0)
	if err != nil {
		return fmt.Errorf("engine-fb64: offline replay: %w", err)
	}
	routing, reconfig := run.Series.Routing[0], run.Series.Reconfig[0]
	if wrongRef {
		reconfig++
	}
	if math.Float64bits(final.Routing) != math.Float64bits(routing) ||
		math.Float64bits(final.Reconfig) != math.Float64bits(reconfig) {
		return fmt.Errorf("engine-fb64: engine costs (%v, %v) != offline RunSource (%v, %v)",
			final.Routing, final.Reconfig, routing, reconfig)
	}
	return nil
}

// shadowCore feeds the served sequence through a bare sim.Incremental,
// batch by batch, and returns the total FeedChunk time.
func shadowCore(env *engineEnv, batches int, rec *recorder) (int64, error) {
	alg, err := env.spec.BuildAlgorithm("r-bma", engB, env.spec.Seed)
	if err != nil {
		return 0, err
	}
	inc := sim.NewIncremental(alg, engAlpha)
	nb := len(env.batches)
	var total int64
	for k := 0; k < batches; k++ {
		j := k % nb
		reqs := env.pool[j*engBatch : (j+1)*engBatch]
		t0 := time.Now()
		inc.FeedChunk(reqs)
		t1 := time.Now()
		total += int64(t1.Sub(t0))
		rec.add(0, 0, "core.feed_chunk", t0, t1)
	}
	return total, nil
}

// cycleSource replays a compiled pool cyclically for n requests: the
// sequence the benchmark sent over the wire.
type cycleSource struct {
	pool  []trace.CompiledReq
	n     int
	pos   int
	racks int
	idx   *trace.PairIndex
}

func (s *cycleSource) Name() string            { return "engine-fb64 pool" }
func (s *cycleSource) NumRacks() int           { return s.racks }
func (s *cycleSource) Len() int                { return s.n }
func (s *cycleSource) Index() *trace.PairIndex { return s.idx }
func (s *cycleSource) Reset()                  { s.pos = 0 }

func (s *cycleSource) Next(chunk *trace.CompiledChunk) (int, error) {
	k := min(cap(chunk.Reqs), s.n-s.pos)
	if k <= 0 {
		chunk.Reqs = chunk.Reqs[:0]
		return 0, io.EOF
	}
	chunk.Reqs = chunk.Reqs[:k]
	for i := range chunk.Reqs {
		chunk.Reqs[i] = s.pool[(s.pos+i)%len(s.pool)]
	}
	s.pos += k
	return k, nil
}
