package obm

// Benchmark harness: one benchmark per sub-figure of the paper's evaluation
// (Figures 1–4, each a/b/c) plus ablation benchmarks for the reproduction's
// design choices (cache policy, lazy vs eager removal, α, predictions; see
// README.md). Figure benchmarks replay a scaled-down workload per iteration
// and report the quantities the paper plots as custom metrics:
//
//	routing_cost   cumulative routing cost of R-BMA at the best b
//	vs_oblivious   R-BMA routing cost / oblivious routing cost (a-figures)
//	vs_bma         R-BMA routing cost / BMA routing cost
//	rbma_ms, bma_ms  decision-loop wall time (b-figures)
//
// Full-scale runs (paper request counts, 5 repetitions) are produced by
// cmd/experiments; these benchmarks use scale=0.02 so the whole suite runs
// in minutes while preserving the figures' qualitative shapes.

import (
	"fmt"
	"net"
	"testing"
	"time"

	"obm/internal/core"
	"obm/internal/engine"
	"obm/internal/figures"
	"obm/internal/flow"
	"obm/internal/graph"
	"obm/internal/matching"
	"obm/internal/paging"
	"obm/internal/sim"
	"obm/internal/stats"
	"obm/internal/trace"
)

const benchScale = 0.02

// runFigure executes one sub-figure experiment and reports its headline
// metrics.
func runFigure(b *testing.B, id string) {
	b.Helper()
	fig, err := figures.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg, specs, err := fig.Build(benchScale, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		res, err = sim.RunExperiment(cfg, specs, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	finals := res.FinalRouting()
	bestB := cfg.Bs[len(cfg.Bs)-1]
	rb := finals[fmt.Sprintf("r-bma(b=%d)", bestB)]
	b.ReportMetric(rb, "routing_cost")
	if obl, ok := finals["oblivious(b=0)"]; ok && obl > 0 {
		b.ReportMetric(rb/obl, "vs_oblivious")
	}
	if bm, ok := finals[fmt.Sprintf("bma(b=%d)", bestB)]; ok && bm > 0 {
		b.ReportMetric(rb/bm, "vs_bma")
	}
	if so, ok := finals[fmt.Sprintf("so-bma(b=%d)", bestB)]; ok && so > 0 {
		b.ReportMetric(rb/so, "vs_sobma")
	}
	if fig.Metric == figures.ExecutionTime {
		for _, c := range res.Curves {
			if c.B != bestB {
				continue
			}
			ms := float64(c.Avg.Elapsed) / float64(time.Millisecond)
			switch c.Alg {
			case "r-bma":
				b.ReportMetric(ms, "rbma_ms")
			case "bma":
				b.ReportMetric(ms, "bma_ms")
			}
		}
	}
}

func BenchmarkFig1a(b *testing.B) { runFigure(b, "fig1a") }
func BenchmarkFig1b(b *testing.B) { runFigure(b, "fig1b") }
func BenchmarkFig1c(b *testing.B) { runFigure(b, "fig1c") }
func BenchmarkFig2a(b *testing.B) { runFigure(b, "fig2a") }
func BenchmarkFig2b(b *testing.B) { runFigure(b, "fig2b") }
func BenchmarkFig2c(b *testing.B) { runFigure(b, "fig2c") }
func BenchmarkFig3a(b *testing.B) { runFigure(b, "fig3a") }
func BenchmarkFig3b(b *testing.B) { runFigure(b, "fig3b") }
func BenchmarkFig3c(b *testing.B) { runFigure(b, "fig3c") }
func BenchmarkFig4a(b *testing.B) { runFigure(b, "fig4a") }
func BenchmarkFig4b(b *testing.B) { runFigure(b, "fig4b") }
func BenchmarkFig4c(b *testing.B) { runFigure(b, "fig4c") }

// --- Execution-time micro-benchmarks (the substance of sub-figures b) ---

func benchServe(b *testing.B, mk func() core.Algorithm, tr *trace.Trace) {
	b.Helper()
	alg := mk()
	b.ResetTimer()
	i := 0
	for n := 0; n < b.N; n++ {
		req := tr.Reqs[i]
		alg.Serve(int(req.Src), int(req.Dst))
		i++
		if i == tr.Len() {
			i = 0
			b.StopTimer()
			alg = mk() // avoid steady-state artifacts when wrapping
			b.StartTimer()
		}
	}
}

func serveWorkload(racks int) (*trace.Trace, core.CostModel) {
	top := graph.FatTreeRacks(racks)
	model := core.CostModel{Metric: top.Metric(), Alpha: figures.DefaultAlpha}
	p := trace.FacebookPreset(trace.Database, racks, 3)
	p.Requests = 200000
	tr, err := trace.FacebookStyle(p)
	if err != nil {
		panic(err)
	}
	return tr, model
}

func BenchmarkServeRBMA(b *testing.B) {
	tr, model := serveWorkload(100)
	for _, bb := range []int{6, 12, 18} {
		b.Run(fmt.Sprintf("b=%d", bb), func(b *testing.B) {
			benchServe(b, func() core.Algorithm {
				alg, _ := core.NewRBMA(100, bb, model, 1)
				return alg
			}, tr)
		})
	}
}

func BenchmarkServeBMA(b *testing.B) {
	tr, model := serveWorkload(100)
	for _, bb := range []int{6, 12, 18} {
		b.Run(fmt.Sprintf("b=%d", bb), func(b *testing.B) {
			benchServe(b, func() core.Algorithm {
				alg, _ := core.NewBMA(100, bb, model)
				return alg
			}, tr)
		})
	}
}

// BenchmarkReplayParallel measures multi-core replay scaling: one large-n
// uniform trace replayed through a multi-plane R-BMA (core.Sharded) with
// one worker goroutine per plane. The shards=1 case is the sequential
// single-plane baseline; higher shard counts fan the same trace out to
// per-plane workers (sim.RunSourceParallel), so the ns/op ratio between
// shards=1 and shards=8 is the end-to-end speedup on this machine —
// bounded by GOMAXPROCS, which the harness reports in the benchmark name
// suffix (-N). Results are byte-identical across shard-worker counts;
// only the shard count itself changes the model (see ARCHITECTURE.md).
func BenchmarkReplayParallel(b *testing.B) {
	const (
		racks    = 192
		requests = 200000
		degree   = 8
	)
	top := graph.FatTreeRacks(racks)
	model := core.CostModel{Metric: top.Metric(), Alpha: 30}
	ct, err := trace.Uniform(racks, requests, 11).Compile(model.Metric.Dist)
	if err != nil {
		b.Fatal(err)
	}
	cps := sim.Checkpoints(ct.Len(), 10)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			part, err := core.NewPartition(racks, shards)
			if err != nil {
				b.Fatal(err)
			}
			sh, err := core.NewSharded(part, func(s int) (core.Algorithm, error) {
				return core.NewRBMA(racks, degree, model, core.ShardSeed(1, s))
			})
			if err != nil {
				b.Fatal(err)
			}
			src := ct.Source()
			var res sim.RunResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh.Reset()
				res, err = sim.RunSourceParallel(sh, src, model.Alpha, cps, 8192, shards)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(requests)*float64(b.N)/b.Elapsed().Seconds()/1e6, "mreq_per_s")
			if n := len(res.Series.Routing); n > 0 {
				b.ReportMetric(res.Series.Routing[n-1], "routing_cost")
			}
		})
	}
}

// BenchmarkEngineIngest measures the live matching engine end to end: a
// pipelined client streams batches over a real TCP loopback socket into
// an r-bma session, and every batch is answered with a cumulative-cost
// result frame. One op is one request. The PR 7 acceptance floor is
// ≥ 1 Mreq/s at 0 allocs/op — both ends reuse every buffer, so once the
// connection is warm neither client, connection handler nor session
// allocates (allocs/op counts the whole process, server goroutines
// included).
func BenchmarkEngineIngest(b *testing.B) {
	const (
		racks = 64
		batch = 1024
	)
	e := engine.New(engine.Options{})
	defer e.Close()
	if _, err := e.CreateSession(engine.SessionConfig{ID: "bench", Racks: racks, B: 8}); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go e.ServeIngest(ln)
	c, _, err := engine.DialIngest(ln.Addr().String(), "bench", 8)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	st, err := trace.NewUniformStream(racks, 1<<16, 7)
	if err != nil {
		b.Fatal(err)
	}
	reqs := trace.Collect(st).Reqs
	nb := len(reqs) / batch
	// Warm-up pass: grows the client frame buffer, the connection's read
	// buffer and the session's scratch to steady state.
	for i := 0; i < nb; i++ {
		if _, err := c.Send(reqs[i*batch : (i+1)*batch]); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := c.Drain(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	idx := 0
	for sent := 0; sent < b.N; {
		n := batch
		if rem := b.N - sent; rem < n {
			n = rem
		}
		if _, err := c.Send(reqs[idx*batch : idx*batch+n]); err != nil {
			b.Fatal(err)
		}
		sent += n
		if idx++; idx == nb {
			idx = 0
		}
	}
	if _, err := c.Drain(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "mreq_per_s")
}

// --- Ablation benchmarks (the reproduction's design choices) ---

// BenchmarkAblationCachePolicy swaps the paging algorithm inside R-BMA:
// randomized marking (the paper's choice) vs LRU, FIFO and random eviction.
func BenchmarkAblationCachePolicy(b *testing.B) {
	tr, model := serveWorkload(50)
	tr = tr.Prefix(50000)
	policies := []struct {
		name string
		f    paging.Factory
	}{
		{"marking", paging.NewMarkingFactory},
		{"lru", paging.NewLRUFactory},
		{"fifo", paging.NewFIFOFactory},
		{"random", paging.NewRandomEvictFactory},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			var routing float64
			for i := 0; i < b.N; i++ {
				alg, err := core.NewRBMA(50, 6, model, uint64(i),
					core.WithCacheFactory(p.f, p.name))
				if err != nil {
					b.Fatal(err)
				}
				routing = 0
				for _, req := range tr.Reqs {
					routing += alg.Serve(int(req.Src), int(req.Dst)).RoutingCost
				}
			}
			b.ReportMetric(routing, "routing_cost")
		})
	}
}

// BenchmarkAblationLazyVsEager compares the paper's lazy pruning
// (footnote 2) against eager removal.
func BenchmarkAblationLazyVsEager(b *testing.B) {
	tr, model := serveWorkload(50)
	tr = tr.Prefix(50000)
	modes := []struct {
		name string
		opts []core.RBMAOption
	}{
		{"lazy", nil},
		{"eager", []core.RBMAOption{core.WithEagerRemoval()}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				alg, err := core.NewRBMA(50, 6, model, uint64(i), m.opts...)
				if err != nil {
					b.Fatal(err)
				}
				total = 0
				for _, req := range tr.Reqs {
					total += alg.Serve(int(req.Src), int(req.Dst)).Total(model.Alpha)
				}
			}
			b.ReportMetric(total, "total_cost")
		})
	}
}

// BenchmarkAblationAlpha sweeps the reconfiguration cost (unstated in the
// paper; this reproduction defaults to 30, see figures.DefaultAlpha).
func BenchmarkAblationAlpha(b *testing.B) {
	top := graph.FatTreeRacks(50)
	p := trace.FacebookPreset(trace.Database, 50, 3)
	p.Requests = 50000
	tr, _ := trace.FacebookStyle(p)
	for _, alpha := range []float64{5, 30, 120} {
		model := core.CostModel{Metric: top.Metric(), Alpha: alpha}
		b.Run(fmt.Sprintf("alpha=%g", alpha), func(b *testing.B) {
			var routing float64
			for i := 0; i < b.N; i++ {
				alg, err := core.NewRBMA(50, 6, model, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				routing = 0
				for _, req := range tr.Reqs {
					routing += alg.Serve(int(req.Src), int(req.Dst)).RoutingCost
				}
			}
			b.ReportMetric(routing, "routing_cost")
		})
	}
}

// BenchmarkAblationClairvoyant compares online R-BMA against the
// Belady-cache variant (perfect predictions; paper §5 future work).
func BenchmarkAblationClairvoyant(b *testing.B) {
	tr, model := serveWorkload(50)
	tr = tr.Prefix(50000)
	b.Run("online", func(b *testing.B) {
		var total float64
		for i := 0; i < b.N; i++ {
			alg, _ := core.NewRBMA(50, 6, model, uint64(i))
			total = 0
			for _, req := range tr.Reqs {
				total += alg.Serve(int(req.Src), int(req.Dst)).Total(model.Alpha)
			}
		}
		b.ReportMetric(total, "total_cost")
	})
	b.Run("clairvoyant", func(b *testing.B) {
		var total float64
		for i := 0; i < b.N; i++ {
			alg, err := core.NewClairvoyantRBMA(tr, 6, model)
			if err != nil {
				b.Fatal(err)
			}
			total = 0
			for _, req := range tr.Reqs {
				total += alg.Serve(int(req.Src), int(req.Dst)).Total(model.Alpha)
			}
		}
		b.ReportMetric(total, "total_cost")
	})
}

// BenchmarkAblationBaselines lines up R-BMA against the wider baseline
// family: BMA, windowed batch recomputation, greedy-no-evict, oblivious.
func BenchmarkAblationBaselines(b *testing.B) {
	tr, model := serveWorkload(50)
	tr = tr.Prefix(50000)
	mk := map[string]func(i int) (core.Algorithm, error){
		"r-bma":     func(i int) (core.Algorithm, error) { return core.NewRBMA(50, 6, model, uint64(i)) },
		"bma":       func(i int) (core.Algorithm, error) { return core.NewBMA(50, 6, model) },
		"batch-1k":  func(i int) (core.Algorithm, error) { return core.NewBatch(50, 6, model, 1000, 0.5) },
		"noevict":   func(i int) (core.Algorithm, error) { return core.NewGreedyNoEvict(50, 6, model) },
		"rotor":     func(i int) (core.Algorithm, error) { return core.NewRotor(50, 6, model, 100) },
		"oblivious": func(i int) (core.Algorithm, error) { return core.NewOblivious(model) },
	}
	for name, f := range mk {
		b.Run(name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				alg, err := f(i)
				if err != nil {
					b.Fatal(err)
				}
				total = 0
				for _, req := range tr.Reqs {
					total += alg.Serve(int(req.Src), int(req.Dst)).Total(model.Alpha)
				}
			}
			b.ReportMetric(total, "total_cost")
		})
	}
}

// BenchmarkAblationPrediction sweeps the prediction-noise level of the
// prediction-augmented R-BMA (paper §5 future work): σ=0 is clairvoyant,
// large σ approaches uninformed eviction.
func BenchmarkAblationPrediction(b *testing.B) {
	tr, model := serveWorkload(50)
	tr = tr.Prefix(50000)
	for _, sigma := range []float64{0, 0.5, 2, 8} {
		b.Run(fmt.Sprintf("sigma=%g", sigma), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				alg, err := core.NewPredictiveRBMA(tr, 6, model, sigma, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				total = 0
				for _, req := range tr.Reqs {
					total += alg.Serve(int(req.Src), int(req.Dst)).Total(model.Alpha)
				}
			}
			b.ReportMetric(total, "total_cost")
		})
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkBlossomMWM(b *testing.B) {
	for _, n := range []int{20, 50, 100} {
		r := stats.NewRand(uint64(n))
		var edges []matching.WeightedEdge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Bool(0.3) {
					edges = append(edges, matching.WeightedEdge{U: u, V: v, W: float64(1 + r.Intn(1000))})
				}
			}
		}
		b.Run(fmt.Sprintf("n=%d/m=%d", n, len(edges)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matching.MaxWeightMatching(n, edges, false)
			}
		})
	}
}

func BenchmarkPagingAccess(b *testing.B) {
	r := stats.NewRand(5)
	seq := make([]uint64, 1<<16)
	for i := range seq {
		seq[i] = uint64(r.Intn(64))
	}
	factories := map[string]paging.Factory{
		"marking": paging.NewMarkingFactory,
		"lru":     paging.NewLRUFactory,
		"fifo":    paging.NewFIFOFactory,
		"clock":   paging.NewCLOCKFactory,
	}
	for name, f := range factories {
		b.Run(name, func(b *testing.B) {
			c := f(16, 1)
			for i := 0; i < b.N; i++ {
				c.Access(seq[i&(1<<16-1)])
			}
		})
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	p := trace.FacebookPreset(trace.Database, 100, 1)
	p.Requests = 100000
	b.Run("facebook-100k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := trace.FacebookStyle(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("microsoft-100k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trace.MicrosoftStyle(50, 100000, uint64(i))
		}
	})
}

func BenchmarkFlowSimulation(b *testing.B) {
	top := graph.FatTreeRacks(32)
	model := core.CostModel{Metric: top.Metric(), Alpha: figures.DefaultAlpha}
	p := trace.FacebookPreset(trace.Database, 32, 11)
	p.Requests = 40000
	tr, _ := trace.FacebookStyle(p)
	cfg := flow.Config{
		LinkCapacity: 100, OpticalCapacity: 400,
		MeanFlowSize: 50, ArrivalRate: 4, Seed: 1,
	}
	b.Run("oblivious", func(b *testing.B) {
		var mean float64
		for i := 0; i < b.N; i++ {
			res, err := flow.SimulateOblivious(top, tr, cfg)
			if err != nil {
				b.Fatal(err)
			}
			mean = res.MeanFCT
		}
		b.ReportMetric(mean, "mean_fct")
	})
	b.Run("r-bma", func(b *testing.B) {
		var mean float64
		for i := 0; i < b.N; i++ {
			alg, _ := core.NewRBMA(32, 4, model, uint64(i))
			res, err := flow.SimulateWithAlgorithm(top, tr, cfg, alg)
			if err != nil {
				b.Fatal(err)
			}
			mean = res.MeanFCT
		}
		b.ReportMetric(mean, "mean_fct")
	})
}

// BenchmarkMetricConstruction times the cold fat-tree metric build (one
// BFS per rack) and, as "shared", the graph.FatTreeMetric cache hit that
// replaces it on every grid, lease and engine session after the first.
func BenchmarkMetricConstruction(b *testing.B) {
	for _, racks := range []int{50, 100, 1024} {
		b.Run(fmt.Sprintf("racks=%d", racks), func(b *testing.B) {
			top := graph.FatTreeRacks(racks)
			for i := 0; i < b.N; i++ {
				top.Metric()
			}
		})
	}
	b.Run("shared/racks=1024", func(b *testing.B) {
		graph.FatTreeMetric(1024)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			graph.FatTreeMetric(1024)
		}
	})
}
