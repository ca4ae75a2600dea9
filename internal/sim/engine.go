// Package sim is the trace-driven simulation harness: it replays request
// traces through online algorithms, records checkpointed cumulative cost
// curves and wall-clock execution time (the paper's Figures 1–4 plot
// exactly these two quantities), averages repetitions, and renders results
// as CSV and quick ASCII charts.
//
// The experiment runner, RunExperiment, compiles the trace once
// (trace.Compiled: every request pre-resolved to its dense PairID,
// endpoints and static distance) and replays the compiled form through
// every algorithm, b value and repetition on a worker pool, reusing one
// result buffer per worker so repeated replays allocate almost nothing.
// Replaying a compiled trace is cost-identical to replaying the raw trace
// (Run): algorithms that implement core.CompiledServer take the dense fast
// path, everything else falls back to Serve(u, v).
//
// Replay also runs streamed: RunSource consumes a trace.Source in
// fixed-size chunks, so arbitrarily long workloads replay under O(chunk)
// memory. Materialized and streamed replays feed the same sequential loop
// (replayer), so their cost curves are bit-identical. On top sits the
// scenario-grid scheduler (ScenarioSpec, RunGrid): named, JSON-encodable
// scenario specs expanded into a (scenario × algorithm × b × rep) job
// grid, executed by a worker pool where every job owns its streaming
// source, with repetitions aggregated into stats.Summary rows and
// CSV/JSON output.
//
// Grid execution is durable-by-hook: PlanGrid exposes the deterministic
// job expansion, and GridOptions' Lookup/Persist/Shard hooks let a run
// store (internal/report) skip completed jobs, log finished ones, and
// partition one grid across processes — without the scheduler knowing
// anything about persistence formats.
package sim

import (
	"fmt"
	"time"

	"obm/internal/core"
	"obm/internal/trace"
)

// Series is one cumulative-cost curve: at X[i] requests served, the
// algorithm had paid Routing[i] routing cost and Reconfig[i]
// reconfiguration cost.
type Series struct {
	Label    string
	X        []int
	Routing  []float64
	Reconfig []float64
}

// Total returns Routing[i] + Reconfig[i].
func (s *Series) Total(i int) float64 { return s.Routing[i] + s.Reconfig[i] }

// RunResult is the outcome of replaying one trace through one algorithm.
type RunResult struct {
	Series            Series
	Elapsed           time.Duration // wall-clock time of the decision loop
	Adds, Removals    int
	FinalMatchingSize int
}

// reset clears the result for reuse, truncating (not freeing) the series.
func (r *RunResult) reset(label string) {
	r.Series.Label = label
	r.Series.X = r.Series.X[:0]
	r.Series.Routing = r.Series.Routing[:0]
	r.Series.Reconfig = r.Series.Reconfig[:0]
	r.Elapsed = 0
	r.Adds, r.Removals = 0, 0
	r.FinalMatchingSize = 0
}

// Checkpoints returns num evenly spaced checkpoints ending at total.
func Checkpoints(total, num int) []int {
	if num < 1 || total < 1 {
		panic("sim: Checkpoints requires positive total and num")
	}
	if num > total {
		num = total
	}
	out := make([]int, num)
	for i := 1; i <= num; i++ {
		out[i-1] = total * i / num
	}
	return out
}

func validateCheckpoints(checkpoints []int, traceLen int) error {
	for i := 1; i < len(checkpoints); i++ {
		if checkpoints[i] <= checkpoints[i-1] {
			return fmt.Errorf("sim: checkpoints must be ascending")
		}
	}
	if len(checkpoints) > 0 && checkpoints[len(checkpoints)-1] > traceLen {
		return fmt.Errorf("sim: checkpoint %d beyond trace length %d",
			checkpoints[len(checkpoints)-1], traceLen)
	}
	return nil
}

// costMeter samples an Incremental's cumulative totals at checkpoints:
// the replays feed requests through the embedded stepper (the same
// accumulation path the live engine runs) and the meter appends series
// points. nextCP is the upcoming checkpoint (or -1), kept denormalized:
// Run compares it once per request, the replayer cuts its chunks at it.
type costMeter struct {
	res         *RunResult
	inc         Incremental
	checkpoints []int
	ci          int
	nextCP      int
}

func newCostMeter(res *RunResult, checkpoints []int, alg core.Algorithm, alpha float64) costMeter {
	m := costMeter{res: res, checkpoints: checkpoints, nextCP: -1}
	m.inc.Init(alg, alpha)
	if len(checkpoints) > 0 {
		m.nextCP = checkpoints[0]
	}
	return m
}

// checkpoint samples the running totals at request count i+1.
func (c *costMeter) checkpoint(i int) {
	for c.ci < len(c.checkpoints) && i+1 == c.checkpoints[c.ci] {
		c.res.Series.X = append(c.res.Series.X, i+1)
		c.res.Series.Routing = append(c.res.Series.Routing, c.inc.tot.Routing)
		c.res.Series.Reconfig = append(c.res.Series.Reconfig, c.inc.tot.Reconfig)
		c.ci++
	}
	c.nextCP = -1
	if c.ci < len(c.checkpoints) {
		c.nextCP = c.checkpoints[c.ci]
	}
}

// finish folds the step totals back into the result.
func (c *costMeter) finish() {
	c.res.Adds = c.inc.tot.Adds
	c.res.Removals = c.inc.tot.Removals
}

// Run replays tr through alg, recording cumulative costs at the given
// checkpoints (request counts, ascending). Elapsed time covers only the
// Serve loop, mirroring the paper's sequential execution-time measurement.
// It is the raw Serve(u, v) reference the compiled replay is pinned to.
func Run(alg core.Algorithm, tr *trace.Trace, alpha float64, checkpoints []int) (RunResult, error) {
	if err := tr.Validate(); err != nil {
		return RunResult{}, err
	}
	if err := validateCheckpoints(checkpoints, tr.Len()); err != nil {
		return RunResult{}, err
	}
	var res RunResult
	res.reset(alg.Name())
	m := newCostMeter(&res, checkpoints, alg, alpha)
	start := time.Now()
	for i, req := range tr.Reqs {
		m.inc.FeedRaw(int(req.Src), int(req.Dst))
		if i+1 == m.nextCP {
			m.checkpoint(i)
		}
	}
	res.Elapsed = time.Since(start)
	m.finish()
	res.FinalMatchingSize = alg.MatchingSize()
	return res, nil
}

// replayer is the sequential replay of compiled requests: begin, then
// feed the trace in order (in one call or chunk by chunk), then finish.
// Materialized and streamed replays, with or without mid-job checkpoints,
// all run through it, and it serves every request through
// Incremental.FeedChunk (the loop the live engine runs too), so they
// produce bit-identical curves. The result buffer is truncated and
// re-appended, so a result recycled across repetitions stops allocating
// once warm.
type replayer struct {
	m       costMeter
	ck      ckHooks
	met     *Metrics
	total   int           // requests the trace declares
	pos     int           // requests consumed so far, fed or skipped
	start   int           // resumed prefix: requests below it are skipped
	fed     int           // requests fed since the last checkpoint save
	saving  bool          // checkpoints are saved every ck.every requests
	elapsed time.Duration // decision-loop time, resumed prefix included
}

// begin validates the checkpoints against a trace of total requests,
// resets res for alg and, when ck.load yields a valid checkpoint blob,
// resumes from it. Anything wrong with the blob silently degrades to a
// fresh replay: a checkpoint is an optimization, never a failure.
func (r *replayer) begin(res *RunResult, alg core.Algorithm, alpha float64, checkpoints []int, total int) error {
	if err := validateCheckpoints(checkpoints, total); err != nil {
		return err
	}
	res.reset(alg.Name())
	r.m = newCostMeter(res, checkpoints, alg, alpha)
	r.total = total
	r.saving = r.ck.every > 0 && r.ck.save != nil
	if r.ck.load == nil {
		return nil
	}
	lt := time.Now()
	blob, ok := r.ck.load()
	if !ok {
		return nil
	}
	pos, elapsed, err := loadReplayCheckpoint(blob, &r.m, total)
	r.met.loadTimed(time.Since(lt))
	if err != nil {
		// The load may have partially mutated the algorithm and the
		// series buffers, so rebuild both from scratch.
		alg.Reset()
		res.reset(alg.Name())
		r.m = newCostMeter(res, checkpoints, alg, alpha)
		return nil
	}
	r.start, r.elapsed = pos, elapsed
	return nil
}

// feed serves the next len(reqs) requests of the trace. Requests inside a
// resumed prefix are skipped; the rest are served in segments that end at
// cost-curve points, which are sampled there; and a checkpoint is saved
// once at least ck.every requests were fed since the last one. Only the
// decision loop is timed.
func (r *replayer) feed(reqs []trace.CompiledReq) error {
	n := len(reqs)
	if r.pos+n <= r.start {
		r.pos += n
		return nil
	}
	skip := max(r.start-r.pos, 0)
	i, rest := r.pos+skip, reqs[skip:]
	t0 := time.Now()
	for len(rest) > 0 {
		// Serve up to the next curve point, then sample it.
		k := len(rest)
		if cp := r.m.nextCP; cp > i && cp-i < k {
			k = cp - i
		}
		r.m.inc.FeedChunk(rest[:k])
		i += k
		rest = rest[k:]
		if i == r.m.nextCP {
			r.m.checkpoint(i - 1)
		}
	}
	r.elapsed += time.Since(t0)
	r.pos += n
	r.fed += n - skip
	r.met.chunkFed(n - skip)
	if !r.saving || r.fed < r.ck.every {
		return nil
	}
	r.fed = 0
	st := time.Now()
	blob, err := saveReplayCheckpoint(&r.m, r.pos, r.elapsed)
	if err != nil {
		// The algorithm cannot snapshot (ablation variants): finish the
		// job without checkpoints rather than fail a computable outcome.
		r.saving = false
		return nil
	}
	if err := r.ck.save(blob); err != nil {
		return fmt.Errorf("sim: saving checkpoint at %d requests: %w", r.pos, err)
	}
	r.met.saveTimed(time.Since(st))
	return nil
}

// finish checks that the trace delivered the requests it declared, folds
// the totals into the result and drops the job's checkpoint.
func (r *replayer) finish(name string) error {
	if r.pos != r.total {
		return fmt.Errorf("sim: source %q produced %d requests, declared %d", name, r.pos, r.total)
	}
	res := r.m.res
	res.Elapsed = r.elapsed
	r.m.finish()
	res.FinalMatchingSize = r.m.inc.alg.MatchingSize()
	if r.ck.drop != nil {
		r.ck.drop()
	}
	return nil
}

// replayCompiled replays a materialized compiled trace into res: one feed
// over the whole trace. Algorithms implementing core.CompiledServer skip
// per-request canonicalization and metric lookups; curves are identical
// to Run on the source trace.
func replayCompiled(res *RunResult, alg core.Algorithm, ct *trace.Compiled, alpha float64, checkpoints []int) error {
	var r replayer
	if err := r.begin(res, alg, alpha, checkpoints, ct.Len()); err != nil {
		return err
	}
	if err := r.feed(ct.Reqs); err != nil {
		return err
	}
	return r.finish(ct.Name)
}
