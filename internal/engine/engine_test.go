package engine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"obm/internal/graph"
	"obm/internal/sim"
	"obm/internal/trace"
)

// startIngest boots an engine with a TCP ingest listener on loopback and
// returns its address.
func startIngest(t *testing.T, e *Engine) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- e.ServeIngest(ln) }()
	t.Cleanup(func() {
		e.Close()
		if err := <-done; err != nil {
			t.Errorf("ServeIngest: %v", err)
		}
	})
	return ln.Addr().String()
}

// goldenStreams mirrors the four paper trace families pinned by core's
// and sim's golden suites.
func goldenStreams(t *testing.T) map[string]trace.Stream {
	t.Helper()
	fb := trace.FacebookPreset(trace.Database, 40, 7)
	fb.Requests = 20000
	fbs, err := trace.NewFacebookStream(fb)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := trace.NewMicrosoftStream(30, 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	us, err := trace.NewUniformStream(30, 16000, 5)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := trace.NewPhaseShiftStream(30, 16000, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]trace.Stream{"facebook": fbs, "microsoft": ms, "uniform": us, "phaseshift": ps}
}

// feedAndCollect streams reqs to session id in batches, collecting the
// cumulative (routing, reconfig) the engine reports at every batch
// boundary, keyed by served count.
func feedAndCollect(t *testing.T, addr, id string, reqs []trace.Request, batch, window int) map[int][2]float64 {
	t.Helper()
	c, info, err := DialIngest(addr, id, window)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if info.Served != 0 {
		t.Fatalf("fresh session served = %d", info.Served)
	}
	out := make(map[int][2]float64)
	record := func(res *BatchResult) {
		if res != nil {
			out[int(res.Served)] = [2]float64{res.Routing, res.Reconfig}
		}
	}
	for start := 0; start < len(reqs); start += batch {
		end := start + batch
		if end > len(reqs) {
			end = len(reqs)
		}
		res, err := c.Send(reqs[start:end])
		if err != nil {
			t.Fatal(err)
		}
		record(res)
	}
	res, err := c.Drain()
	if err != nil {
		t.Fatal(err)
	}
	record(res)
	return out
}

// TestEngineMatchesOfflineReplay is the determinism acceptance test: on
// all four paper trace families, the cumulative cost stream the engine
// reports over the wire is bit-identical to an offline sim.RunSource
// replay of the same requests through an identically-seeded algorithm, at
// every batch boundary.
func TestEngineMatchesOfflineReplay(t *testing.T) {
	const batch = 1000
	e := New(Options{})
	addr := startIngest(t, e)
	for name, st := range goldenStreams(t) {
		t.Run(name, func(t *testing.T) {
			cfg := SessionConfig{ID: name, Racks: st.NumRacks(), B: 8, Alg: "r-bma", Seed: 3}
			if _, err := e.CreateSession(cfg); err != nil {
				t.Fatal(err)
			}
			// window 1 (strict request/response) so every batch boundary's
			// result is observed; the pipelined window is exercised by the
			// sharded and concurrent tests.
			reqs := trace.Collect(st).Reqs
			got := feedAndCollect(t, addr, name, reqs, batch, 1)

			// Offline twin: same registry build, same seed, chunked replay
			// with checkpoints at the wire's batch boundaries.
			cfg = cfg.withDefaults()
			alg, err := cfg.spec().BuildAlgorithm(cfg.Alg, cfg.B, cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			st.Reset()
			src, err := trace.NewSource(st, graph.FatTreeRacks(cfg.Racks).Metric().Dist)
			if err != nil {
				t.Fatal(err)
			}
			var checkpoints []int
			for i := batch; i < len(reqs); i += batch {
				checkpoints = append(checkpoints, i)
			}
			checkpoints = append(checkpoints, len(reqs))
			res, err := sim.RunSource(alg, src, cfg.Alpha, checkpoints, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range res.Series.X {
				g, ok := got[x]
				if !ok {
					t.Fatalf("engine reported no result at %d served", x)
				}
				if math.Float64bits(g[0]) != math.Float64bits(res.Series.Routing[i]) ||
					math.Float64bits(g[1]) != math.Float64bits(res.Series.Reconfig[i]) {
					t.Fatalf("served=%d: engine (%v, %v) != offline (%v, %v)",
						x, g[0], g[1], res.Series.Routing[i], res.Series.Reconfig[i])
				}
			}
		})
	}
}

// TestEngineShardedMatchesOffline repeats the determinism check for a
// multi-plane (core.Sharded) session.
func TestEngineShardedMatchesOffline(t *testing.T) {
	st, err := trace.NewUniformStream(32, 8000, 9)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{})
	addr := startIngest(t, e)
	cfg := SessionConfig{ID: "sharded", Racks: 32, B: 4, Alg: "r-bma", Seed: 5, Shards: 4}
	if _, err := e.CreateSession(cfg); err != nil {
		t.Fatal(err)
	}
	reqs := trace.Collect(st).Reqs
	got := feedAndCollect(t, addr, "sharded", reqs, 500, 2)

	cfg = cfg.withDefaults()
	alg, err := cfg.spec().BuildAlgorithm(cfg.Alg, cfg.B, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	st.Reset()
	src, err := trace.NewSource(st, graph.FatTreeRacks(cfg.Racks).Metric().Dist)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunSource(alg, src, cfg.Alpha, []int{len(reqs)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := got[len(reqs)]
	if math.Float64bits(g[0]) != math.Float64bits(res.Series.Routing[0]) ||
		math.Float64bits(g[1]) != math.Float64bits(res.Series.Reconfig[0]) {
		t.Fatalf("sharded: engine (%v, %v) != offline (%v, %v)",
			g[0], g[1], res.Series.Routing[0], res.Series.Reconfig[0])
	}
}

// TestEngineConcurrentSessions exercises independent sessions fed from
// concurrent connections while the HTTP plane polls status; run under
// -race this pins the locking discipline. Each session must still match
// its offline twin exactly — concurrency across sessions must not leak
// into any session's request order.
func TestEngineConcurrentSessions(t *testing.T) {
	e := New(Options{})
	addr := startIngest(t, e)
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	const n = 4
	var wg sync.WaitGroup
	finals := make([][2]float64, n)
	for i := 0; i < n; i++ {
		cfg := SessionConfig{ID: fmt.Sprintf("c%d", i), Racks: 24, B: 4, Alg: "r-bma", Seed: uint64(i)}
		if _, err := e.CreateSession(cfg); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, cfg SessionConfig) {
			defer wg.Done()
			st, err := trace.NewUniformStream(24, 4000, uint64(100+i))
			if err != nil {
				t.Error(err)
				return
			}
			reqs := trace.Collect(st).Reqs
			got := feedAndCollect(t, addr, cfg.ID, reqs, 250, 3)
			finals[i] = got[len(reqs)]
		}(i, cfg)
	}
	// Status polling races against ingest on purpose.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			resp, err := http.Get(ts.URL + "/api/v1/sessions")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}
	}()
	wg.Wait()

	for i := 0; i < n; i++ {
		cfg := SessionConfig{ID: fmt.Sprintf("c%d", i), Racks: 24, B: 4, Alg: "r-bma", Seed: uint64(i)}.withDefaults()
		alg, err := cfg.spec().BuildAlgorithm(cfg.Alg, cfg.B, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		st, err := trace.NewUniformStream(24, 4000, uint64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		src, err := trace.NewSource(st, graph.FatTreeRacks(24).Metric().Dist)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunSource(alg, src, cfg.Alpha, []int{4000}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(finals[i][0]) != math.Float64bits(res.Series.Routing[0]) ||
			math.Float64bits(finals[i][1]) != math.Float64bits(res.Series.Reconfig[0]) {
			t.Errorf("session c%d: engine (%v, %v) != offline (%v, %v)",
				i, finals[i][0], finals[i][1], res.Series.Routing[0], res.Series.Reconfig[0])
		}
	}
}

// rawConn is a hand-driven protocol connection for error-path tests.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn, br: bufio.NewReader(conn)}
}

func (r *rawConn) send(frame []byte) {
	r.t.Helper()
	if _, err := r.conn.Write(frame); err != nil {
		r.t.Fatal(err)
	}
}

// expectError reads one frame and asserts it is an error frame whose
// message contains want, followed by connection close.
func (r *rawConn) expectError(want string) {
	r.t.Helper()
	typ, payload, err := readFrame(r.br, &r.buf)
	if err != nil {
		r.t.Fatalf("reading error frame: %v", err)
	}
	if typ != frameError {
		r.t.Fatalf("frame type 0x%02x, want error", typ)
	}
	if err := decodeError(payload); err == nil || !strings.Contains(err.Error(), want) {
		r.t.Fatalf("error %v does not contain %q", err, want)
	}
	if _, _, err := readFrame(r.br, &r.buf); err == nil {
		r.t.Fatal("connection still open after error frame")
	}
}

func (r *rawConn) hello(session string) {
	r.t.Helper()
	frame, err := appendHello(nil, session)
	if err != nil {
		r.t.Fatal(err)
	}
	r.send(frame)
	typ, payload, err := readFrame(r.br, &r.buf)
	if err != nil {
		r.t.Fatal(err)
	}
	if typ != frameHelloOK {
		r.t.Fatalf("hello answered with frame type 0x%02x", typ)
	}
	if _, err := decodeHelloOK(payload); err != nil {
		r.t.Fatal(err)
	}
}

// TestCreateSessionBoundsRacks: sessions inherit the scenario rack limit,
// so a hostile config is refused before any O(racks²) table is built.
func TestCreateSessionBoundsRacks(t *testing.T) {
	e := New(Options{})
	for _, racks := range []int{4097, 1 << 20} {
		if _, err := e.CreateSession(SessionConfig{Racks: racks, B: 2}); err == nil || !strings.Contains(err.Error(), "4096") {
			t.Errorf("racks = %d: CreateSession error = %v, want the 4096 limit", racks, err)
		}
	}
}

func TestEngineProtocolErrors(t *testing.T) {
	e := New(Options{})
	addr := startIngest(t, e)
	if _, err := e.CreateSession(SessionConfig{ID: "live", Racks: 8, B: 2}); err != nil {
		t.Fatal(err)
	}
	batchFor := func(reqs ...trace.Request) []byte {
		frame, err := appendBatch(nil, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}

	t.Run("bad magic", func(t *testing.T) {
		r := dialRaw(t, addr)
		frame, _ := appendHello(nil, "live")
		copy(frame[headerSize:], "NOPE")
		r.send(frame)
		r.expectError("bad hello magic")
	})
	t.Run("unknown session", func(t *testing.T) {
		r := dialRaw(t, addr)
		frame, _ := appendHello(nil, "ghost")
		r.send(frame)
		r.expectError(`unknown session "ghost"`)
	})
	t.Run("batch before hello", func(t *testing.T) {
		r := dialRaw(t, addr)
		r.send(batchFor(trace.Request{Src: 0, Dst: 1}))
		r.expectError("want hello")
	})
	t.Run("second hello", func(t *testing.T) {
		r := dialRaw(t, addr)
		r.hello("live")
		frame, _ := appendHello(nil, "live")
		r.send(frame)
		r.expectError("want batch")
	})
	t.Run("count mismatch", func(t *testing.T) {
		r := dialRaw(t, addr)
		r.hello("live")
		frame := batchFor(trace.Request{Src: 0, Dst: 1}, trace.Request{Src: 2, Dst: 3})
		binary.LittleEndian.PutUint32(frame[headerSize:], 5) // lie about count
		r.send(frame)
		r.expectError("declares 5 requests")
	})
	t.Run("rack out of range", func(t *testing.T) {
		r := dialRaw(t, addr)
		r.hello("live")
		r.send(batchFor(trace.Request{Src: 0, Dst: 99}))
		r.expectError("outside 8 racks")
	})
	t.Run("self pair", func(t *testing.T) {
		r := dialRaw(t, addr)
		r.hello("live")
		r.send(batchFor(trace.Request{Src: 3, Dst: 3}))
		r.expectError("self-pair")
	})
	t.Run("session deleted mid-stream", func(t *testing.T) {
		if _, err := e.CreateSession(SessionConfig{ID: "doomed", Racks: 8, B: 2}); err != nil {
			t.Fatal(err)
		}
		r := dialRaw(t, addr)
		r.hello("doomed")
		if !e.DeleteSession("doomed") {
			t.Fatal("delete failed")
		}
		r.send(batchFor(trace.Request{Src: 0, Dst: 1}))
		r.expectError(`session "doomed" deleted`)
	})
	// An invalid batch must not corrupt the session: state is unchanged,
	// and a reconnect can continue.
	t.Run("session survives bad batch", func(t *testing.T) {
		r := dialRaw(t, addr)
		r.hello("live")
		r.send(batchFor(trace.Request{Src: 0, Dst: 1}, trace.Request{Src: 7, Dst: 7}))
		r.expectError("self-pair")
		s, ok := e.Session("live")
		if !ok {
			t.Fatal("session gone")
		}
		if served := s.Status().Served; served != 0 {
			t.Fatalf("half-applied batch: served = %d, want 0", served)
		}
		c, info, err := DialIngest(addr, "live", 1)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if info.Served != 0 {
			t.Fatalf("reconnect served = %d, want 0", info.Served)
		}
		if _, err := c.Send([]trace.Request{{Src: 0, Dst: 1}}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestEngineHTTP(t *testing.T) {
	e := New(Options{MaxSessions: 2})
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()
	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	if resp, _ := post("/api/v1/sessions", `{"id":"web","racks":16,"b":4}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	if resp, body := post("/api/v1/sessions", `{"id":"web","racks":16,"b":4}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate create: %d %s", resp.StatusCode, body)
	}
	if resp, _ := post("/api/v1/sessions", `{"racks":1,"b":4}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad racks accepted: %d", resp.StatusCode)
	}
	if resp, _ := post("/api/v1/sessions", `{"racks":16,"b":4,"bogus":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field accepted: %d", resp.StatusCode)
	}

	// Serve two requests and watch the counters move.
	resp, body := post("/api/v1/sessions/web/serve", `{"u":3,"v":7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("serve: %d %s", resp.StatusCode, body)
	}
	var sr serveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Served != 1 {
		t.Fatalf("served = %d, want 1", sr.Served)
	}
	if resp, _ := post("/api/v1/sessions/web/serve", `{"u":7,"v":7}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("self-pair accepted: %d", resp.StatusCode)
	}
	if resp, _ := post("/api/v1/sessions/nope/serve", `{"u":0,"v":1}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session serve: %d", resp.StatusCode)
	}

	// Status carries the served count and latency summary.
	sresp, err := http.Get(ts.URL + "/api/v1/sessions/web")
	if err != nil {
		t.Fatal(err)
	}
	var st SessionStatus
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Served != 1 || st.Latency.Batches != 1 {
		t.Fatalf("status served/batches = %d/%d, want 1/1", st.Served, st.Latency.Batches)
	}

	// Session cap.
	if resp, _ := post("/api/v1/sessions", `{"racks":16,"b":4}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("second create: %d", resp.StatusCode)
	}
	if resp, body := post("/api/v1/sessions", `{"racks":16,"b":4}`); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "limit") {
		t.Fatalf("over-cap create: %d %s", resp.StatusCode, body)
	}

	// Delete, then 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/sessions/web", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/api/v1/sessions/web"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status after delete: %v %d", err, resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v", err)
	}
}

// TestFeedBinaryAllocFree pins the tentpole's zero-allocation contract on
// the server hot path: once the session's scratch buffer is warm, serving
// a wire batch allocates nothing.
func TestFeedBinaryAllocFree(t *testing.T) {
	e := New(Options{})
	s, err := e.CreateSession(SessionConfig{Racks: 64, B: 8, Alg: "r-bma"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := trace.NewUniformStream(64, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs := trace.Collect(st).Reqs
	frame, err := appendBatch(nil, reqs)
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[headerSize+4:]
	var res BatchResult
	if err := s.FeedBinary(payload, &res); err != nil { // warm scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.FeedBinary(payload, &res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("FeedBinary allocates %.1f times per batch, want 0", allocs)
	}
}
