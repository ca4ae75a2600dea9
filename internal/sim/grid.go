package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"obm/internal/core"
	"obm/internal/stats"
	"obm/internal/trace"
)

// The scenario-grid scheduler: a list of ScenarioSpecs is expanded into a
// (scenario × algorithm × b × rep) job grid and executed by a worker pool.
// Every job builds its own streaming source, so memory is O(workers ×
// chunk) regardless of trace lengths, and jobs never share mutable state.
// Repetitions of one (scenario, algorithm, b) cell are aggregated into a
// stats.Summary row.
//
// The grid supports durable execution through three orthogonal hooks, all
// built on the fact that a job's outcome is a pure function of its
// identity (the spec seed and the rep-derived algorithm seed):
//
//   - Lookup short-circuits jobs whose outcome is already known (resume);
//   - Persist records each finished job (a run store appends it to a log);
//   - Shard/Shards statically partitions the job grid across processes.
//
// internal/report combines them into a crash-safe, shardable run store.

// GridJob identifies one cell-repetition of the grid. Job identity is
// stable across runs: it depends only on the specs, never on scheduling,
// worker count or sharding — which is what makes outcomes persistable and
// grids resumable.
type GridJob struct {
	Scenario string
	Alg      string
	B        int
	Rep      int
}

func (j GridJob) String() string {
	return fmt.Sprintf("%s/%s(b=%d)/rep=%d", j.Scenario, j.Alg, j.B, j.Rep)
}

// JobOutcome is the persistable result of one grid job: the final
// cumulative costs, the decision-loop wall time, and (when
// GridOptions.CurvePoints > 0) the checkpointed cost curve. Routing and
// Reconfig are deterministic given the job identity; ElapsedMS is not.
type JobOutcome struct {
	Routing   float64 `json:"routing"`
	Reconfig  float64 `json:"reconfig"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Checkpointed curve, present when the grid ran with CurvePoints > 0:
	// after X[i] requests the job had paid RoutingCurve[i] routing and
	// ReconfigCurve[i] reconfiguration cost.
	X             []int     `json:"x,omitempty"`
	RoutingCurve  []float64 `json:"routing_curve,omitempty"`
	ReconfigCurve []float64 `json:"reconfig_curve,omitempty"`
}

// GridOptions tunes the grid scheduler.
type GridOptions struct {
	// Workers is the pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// ChunkSize is the streaming chunk capacity per worker
	// (trace.DefaultChunkSize if <= 0).
	ChunkSize int
	// CurvePoints, when > 0, records that many evenly spaced cost-curve
	// checkpoints in every JobOutcome (0 keeps only the final costs).
	CurvePoints int
	// Parallel, when > 1, replays each job with up to that many worker
	// goroutines when the job's algorithm is sharded (scenario Shards > 1);
	// single-plane jobs always replay sequentially. Outcomes are
	// byte-identical for every Parallel value — like Workers, it is a
	// throughput knob, never part of job identity, so persisted outcomes,
	// content-addressed caches and fleet shards stay valid across it.
	Parallel int
	// Shard/Shards statically partition the job grid: only jobs whose
	// plan index i satisfies i % Shards == Shard are executed, so
	// independent processes (or machines) running distinct shards of the
	// same spec list own disjoint job slices. Shards <= 1 disables
	// sharding. Cells with no jobs in this shard are dropped from the
	// result; a merged full-grid view is assembled by internal/report.
	Shard, Shards int
	// Lookup, when non-nil, is consulted once per job before execution;
	// returning (outcome, true) marks the job complete without running it.
	// This is the resume path: a run store replays its log through Lookup
	// and only the missing jobs execute.
	Lookup func(GridJob) (JobOutcome, bool)
	// Persist, when non-nil, is called exactly once per executed job,
	// serialized, after the job finishes successfully (jobs resolved via
	// Lookup are not re-persisted). A Persist error aborts the grid like a
	// job failure.
	Persist func(GridJob, JobOutcome) error
	// Progress, when non-nil, is called after every executed job with the
	// completion count (jobs resolved via Lookup are not reported).
	// Callbacks are serialized; err is the job's error (nil on success).
	Progress func(done, total int, job GridJob, err error)
	// CheckpointEvery, when > 0 with SaveCheckpoint set, snapshots each
	// in-flight job's algorithm state plus partial curve roughly every
	// that many requests (at chunk boundaries, sequential replay only;
	// the parallel path replays whole jobs or not at all). A killed run
	// resumed through LoadCheckpoint then restarts *inside* a job rather
	// than at its start. Checkpoints are an optimization, never part of
	// job identity: a missing, stale or corrupt checkpoint just means a
	// fresh replay, and determinism makes the outcome identical.
	CheckpointEvery int
	// SaveCheckpoint persists one job's mid-flight checkpoint blob,
	// replacing any previous one. Errors abort the grid like a Persist
	// failure (a broken checkpoint store is a broken store).
	SaveCheckpoint func(GridJob, []byte) error
	// LoadCheckpoint returns a job's previously saved checkpoint blob, if
	// any, consulted once before the job replays from scratch.
	LoadCheckpoint func(GridJob) ([]byte, bool)
	// DropCheckpoint discards a job's checkpoint once the job completes.
	DropCheckpoint func(GridJob)
	// Metrics, when non-nil, receives replay observability (request/chunk
	// throughput, executed jobs, fold and checkpoint timings). Purely
	// observational: instrumented runs produce bit-identical outcomes.
	Metrics *Metrics
}

// GridRow is one aggregated cell: the final costs of one (scenario,
// algorithm, b) combination summarized over its repetitions.
type GridRow struct {
	Scenario string
	Family   string
	Alg      string
	B        int
	Requests int
	Racks    int
	// Final cumulative costs across repetitions.
	Routing  stats.Summary
	Reconfig stats.Summary
	Total    stats.Summary
	// ElapsedMS summarizes per-repetition decision-loop wall time.
	ElapsedMS stats.Summary
}

// GridResult collects every aggregated row of a grid run, in deterministic
// (spec, algorithm, b) order.
type GridResult struct {
	Rows []GridRow
}

// GridPlan is the deterministic expansion of a spec list into its job grid:
// job identities in execution order, the (scenario, algorithm, b) cells
// they aggregate into, and the job→cell mapping. The plan is a pure
// function of the specs — two processes planning the same specs see the
// same job order, which is what sharding and run stores rely on.
type GridPlan struct {
	Jobs []GridJob
	// Cells carries each cell's identity fields (summaries are zero).
	Cells []GridRow
	// CellOf[i] is the index in Cells that Jobs[i] aggregates into.
	CellOf []int
}

// runtimeJob is a planned job plus everything needed to execute it.
type runtimeJob struct {
	GridJob
	spec  ScenarioSpec
	model core.CostModel
	alg   AlgSpec
	cell  int
}

// expandGrid validates the specs and expands them into the runtime job
// list and cell table, in deterministic (spec, algorithm, b, rep) order.
// The cost model (an O(racks²) metric construction) is built once per
// scenario and shared by its jobs.
func expandGrid(specs []ScenarioSpec) ([]runtimeJob, []GridRow, error) {
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("sim: grid with no scenarios")
	}
	seen := make(map[string]bool, len(specs))
	for _, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, nil, err
		}
		if seen[spec.Name] {
			return nil, nil, fmt.Errorf("sim: duplicate scenario name %q", spec.Name)
		}
		seen[spec.Name] = true
	}
	var jobs []runtimeJob
	var cells []GridRow
	for _, spec := range specs {
		spec := spec.withDefaults()
		model := spec.Model()
		for _, algName := range spec.Algs {
			as, err := spec.algSpec(algName, model)
			if err != nil {
				return nil, nil, err
			}
			bs := spec.Bs
			if as.FixedB >= 0 {
				bs = []int{as.FixedB}
			}
			for _, b := range bs {
				cells = append(cells, GridRow{
					Scenario: spec.Name,
					Family:   spec.Family,
					Alg:      algName,
					B:        b,
					Requests: spec.Requests,
					Racks:    spec.Racks,
				})
				for rep := 0; rep < spec.Reps; rep++ {
					jobs = append(jobs, runtimeJob{
						GridJob: GridJob{Scenario: spec.Name, Alg: algName, B: b, Rep: rep},
						spec:    spec,
						model:   model,
						alg:     as,
						cell:    len(cells) - 1,
					})
				}
			}
		}
	}
	return jobs, cells, nil
}

// newPlan strips the runtime parts off an expanded grid.
func newPlan(jobs []runtimeJob, cells []GridRow) *GridPlan {
	p := &GridPlan{
		Jobs:   make([]GridJob, len(jobs)),
		Cells:  cells,
		CellOf: make([]int, len(jobs)),
	}
	for i := range jobs {
		p.Jobs[i] = jobs[i].GridJob
		p.CellOf[i] = jobs[i].cell
	}
	return p
}

// PlanGrid expands specs into their job grid without executing anything.
// internal/report plans the same grid a run store was created from to know
// which jobs a log is missing and to aggregate records in canonical order.
func PlanGrid(specs []ScenarioSpec) (*GridPlan, error) {
	jobs, cells, err := expandGrid(specs)
	if err != nil {
		return nil, err
	}
	return newPlan(jobs, cells), nil
}

// ShardSlice returns the plan jobs owned by shard (index, count) — those
// whose plan index i satisfies i % count == index — in plan order. A
// count <= 1 returns the full job list. It is the partition the
// GridOptions.Shard/Shards hooks execute and the unit the experiment
// service leases to fleet workers.
func (p *GridPlan) ShardSlice(index, count int) []GridJob {
	if count <= 1 {
		return append([]GridJob(nil), p.Jobs...)
	}
	var jobs []GridJob
	for i := index; i < len(p.Jobs); i += count {
		jobs = append(jobs, p.Jobs[i])
	}
	return jobs
}

// Aggregate folds job outcomes into the plan's cells: repetition values are
// summarized in plan order, so the result is independent of where the
// outcomes came from (live execution, a resumed log, merged shard logs).
// Jobs without an outcome are skipped; cells with no outcomes are dropped.
func (p *GridPlan) Aggregate(outcomes map[GridJob]JobOutcome) *GridResult {
	type acc struct {
		routing, reconfig, total, elapsed []float64
	}
	accs := make([]acc, len(p.Cells))
	for i, j := range p.Jobs {
		o, ok := outcomes[j]
		if !ok {
			continue
		}
		a := &accs[p.CellOf[i]]
		a.routing = append(a.routing, o.Routing)
		a.reconfig = append(a.reconfig, o.Reconfig)
		a.total = append(a.total, o.Routing+o.Reconfig)
		a.elapsed = append(a.elapsed, o.ElapsedMS)
	}
	out := &GridResult{Rows: make([]GridRow, 0, len(p.Cells))}
	for ci, a := range accs {
		if len(a.routing) == 0 {
			continue
		}
		row := p.Cells[ci]
		row.Routing = stats.Summarize(a.routing)
		row.Reconfig = stats.Summarize(a.reconfig)
		row.Total = stats.Summarize(a.total)
		row.ElapsedMS = stats.Summarize(a.elapsed)
		out.Rows = append(out.Rows, row)
	}
	return out
}

// RunGrid validates the specs, expands the job grid and executes it on the
// worker pool, honoring the durability hooks in opt (Lookup-resolved jobs
// are skipped, executed jobs are handed to Persist, and sharding restricts
// execution to this process's slice). All job errors are collected and
// joined; after the first failure no new jobs are started (in-flight jobs
// finish). On error the partial result is discarded — though every job
// Persist saw is already durable.
func RunGrid(specs []ScenarioSpec, opt GridOptions) (*GridResult, error) {
	return RunGridContext(context.Background(), specs, opt)
}

// RunGridContext is RunGrid under a context. Cancelling ctx stops the
// grid promptly: no new jobs are fed to the pool, and in-flight jobs
// abort at their next chunk boundary instead of replaying to the end.
// Jobs that completed (and were handed to Persist) before the
// cancellation stay valid — a store-backed run is left
// partial-but-persisted, ready to be resumed. On cancellation the
// returned result aggregates exactly those completed jobs and err wraps
// ctx.Err(); job errors caused by the cancellation itself are not
// reported as failures.
func RunGridContext(ctx context.Context, specs []ScenarioSpec, opt GridOptions) (*GridResult, error) {
	jobs, cells, err := expandGrid(specs)
	if err != nil {
		return nil, err
	}
	if opt.Shards > 1 && (opt.Shard < 0 || opt.Shard >= opt.Shards) {
		return nil, fmt.Errorf("sim: shard %d/%d out of range", opt.Shard, opt.Shards)
	}

	// Partition (sharding) and short-circuit (resume) before execution.
	outcomes := make(map[GridJob]JobOutcome, len(jobs))
	var run []runtimeJob
	for i := range jobs {
		if opt.Shards > 1 && i%opt.Shards != opt.Shard {
			continue
		}
		if opt.Lookup != nil {
			if o, ok := opt.Lookup(jobs[i].GridJob); ok {
				outcomes[jobs[i].GridJob] = o
				continue
			}
		}
		run = append(run, jobs[i])
	}

	results := make([]JobOutcome, len(run))
	completed := make([]bool, len(run))
	var (
		mu   sync.Mutex // serializes Persist and Progress callbacks
		done int
	)
	err = runPool(ctx, len(run), opt.Workers, func() func(int) error {
		// Per-worker scratch: one chunk and one result buffer reused
		// across every job — the bounded-memory contract.
		chunk := trace.NewChunk(opt.ChunkSize)
		var res RunResult
		return func(ji int) error {
			j := &run[ji]
			err := runGridJob(ctx, j.spec, j.model, j.alg, j.GridJob, &opt, chunk, &res)
			if err != nil {
				err = fmt.Errorf("sim: grid %s: %w", j.GridJob, err)
			} else {
				results[ji] = jobOutcome(&res, opt.CurvePoints)
			}
			mu.Lock()
			done++
			if err == nil && opt.Persist != nil {
				if perr := opt.Persist(j.GridJob, results[ji]); perr != nil {
					err = fmt.Errorf("sim: grid %s: persisting: %w", j.GridJob, perr)
				}
			}
			if err == nil {
				completed[ji] = true
				opt.Metrics.jobDone()
			}
			if opt.Progress != nil {
				opt.Progress(done, len(run), j.GridJob, err)
			}
			mu.Unlock()
			return err
		}
	})
	if cerr := ctx.Err(); cerr != nil {
		// A cancelled grid is not a failed grid: aggregate what finished
		// (all of it already persisted) and report the cancellation. Real
		// job failures that raced with the cancellation are subsumed — the
		// caller asked the grid to stop, and a resume will resurface them.
		for i := range run {
			if completed[i] {
				outcomes[run[i].GridJob] = results[i]
			}
		}
		return newPlan(jobs, cells).Aggregate(outcomes), fmt.Errorf("sim: grid interrupted: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	for i := range run {
		outcomes[run[i].GridJob] = results[i]
	}
	return newPlan(jobs, cells).Aggregate(outcomes), nil
}

// jobOutcome snapshots a run result into a persistable outcome, copying
// the curve out of the worker's reused buffers.
func jobOutcome(res *RunResult, curvePoints int) JobOutcome {
	o := JobOutcome{ElapsedMS: float64(res.Elapsed) / float64(time.Millisecond)}
	if n := len(res.Series.X); n > 0 {
		o.Routing = res.Series.Routing[n-1]
		o.Reconfig = res.Series.Reconfig[n-1]
	}
	if curvePoints > 0 {
		o.X = append([]int(nil), res.Series.X...)
		o.RoutingCurve = append([]float64(nil), res.Series.Routing...)
		o.ReconfigCurve = append([]float64(nil), res.Series.Reconfig...)
	}
	return o
}

// gridCheckpoints picks a job's checkpoint list: the full curve when the
// grid records curves, otherwise the single end-of-trace checkpoint.
func gridCheckpoints(total, curvePoints int) []int {
	if total == 0 {
		return nil
	}
	if curvePoints > 0 {
		return Checkpoints(total, curvePoints)
	}
	return []int{total}
}

// runGridJob replays one grid job: it builds the job's own streaming
// source (workers never share generator state) against the scenario's
// pre-built model and records cumulative costs at the job's checkpoints.
// Multi-plane jobs take the parallel replay path when the grid runs with
// Parallel > 1; the outcome is identical either way. Mid-job checkpointing
// applies only to the sequential path — the parallel path replays whole
// jobs or not at all, but still drops any stale checkpoint it completes
// past.
func runGridJob(ctx context.Context, spec ScenarioSpec, model core.CostModel, as AlgSpec, j GridJob, opt *GridOptions, chunk *trace.CompiledChunk, res *RunResult) error {
	st, err := spec.NewStream()
	if err != nil {
		return err
	}
	src, err := trace.NewSource(st, model.Metric.Dist)
	if err != nil {
		return err
	}
	alg, err := as.New(j.B, uint64(j.Rep))
	if err != nil {
		return err
	}
	checkpoints := gridCheckpoints(src.Len(), opt.CurvePoints)
	if opt.Parallel > 1 {
		if sh, ok := alg.(*core.Sharded); ok && sh.Shards() > 1 {
			if err := runSourceParallelInto(ctx, res, sh, src, spec.Alpha, checkpoints, chunk, opt.Parallel, opt.Metrics); err != nil {
				return err
			}
			if opt.DropCheckpoint != nil {
				opt.DropCheckpoint(j)
			}
			return nil
		}
	}
	ck := ckHooks{every: opt.CheckpointEvery}
	if opt.SaveCheckpoint != nil {
		ck.save = func(blob []byte) error { return opt.SaveCheckpoint(j, blob) }
	}
	if opt.LoadCheckpoint != nil {
		ck.load = func() ([]byte, bool) { return opt.LoadCheckpoint(j) }
	}
	if opt.DropCheckpoint != nil {
		ck.drop = func() { opt.DropCheckpoint(j) }
	}
	return replay(ctx, res, alg, src, spec.Alpha, checkpoints, chunk, ck, opt.Metrics)
}

// WriteCSV emits the grid result as tidy CSV, one row per aggregated cell.
func (g *GridResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "scenario,family,alg,b,racks,requests,reps,"+
		"routing_mean,routing_std,reconfig_mean,reconfig_std,total_mean,total_std,elapsed_ms_mean"); err != nil {
		return err
	}
	for _, r := range g.Rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%d,%d,%d,%d,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%.3f\n",
			r.Scenario, r.Family, r.Alg, r.B, r.Racks, r.Requests, r.Routing.N,
			r.Routing.Mean, r.Routing.Std, r.Reconfig.Mean, r.Reconfig.Std,
			r.Total.Mean, r.Total.Std, r.ElapsedMS.Mean); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON emits the grid result as JSON.
func (g *GridResult) WriteJSON(w io.Writer) error {
	type jsonRow struct {
		Scenario  string        `json:"scenario"`
		Family    string        `json:"family"`
		Alg       string        `json:"alg"`
		B         int           `json:"b"`
		Racks     int           `json:"racks"`
		Requests  int           `json:"requests"`
		Routing   stats.Summary `json:"routing_cost"`
		Reconfig  stats.Summary `json:"reconfig_cost"`
		Total     stats.Summary `json:"total_cost"`
		ElapsedMS stats.Summary `json:"elapsed_ms"`
	}
	out := struct {
		Rows []jsonRow `json:"rows"`
	}{Rows: make([]jsonRow, 0, len(g.Rows))}
	for _, r := range g.Rows {
		out.Rows = append(out.Rows, jsonRow{
			Scenario: r.Scenario, Family: r.Family, Alg: r.Alg, B: r.B,
			Racks: r.Racks, Requests: r.Requests,
			Routing: r.Routing, Reconfig: r.Reconfig, Total: r.Total,
			ElapsedMS: r.ElapsedMS,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// SummaryRows renders one aligned text line per aggregated cell.
func (g *GridResult) SummaryRows() []string {
	rows := make([]string, 0, len(g.Rows))
	for _, r := range g.Rows {
		rows = append(rows, fmt.Sprintf("%-24s %-10s b=%-3d routing=%.3e±%.1e total=%.3e  time=%8.2fms",
			r.Scenario, r.Alg, r.B, r.Routing.Mean, r.Routing.Std, r.Total.Mean, r.ElapsedMS.Mean))
	}
	return rows
}

// ReadScenarios decodes a JSON scenario list ([{...}, ...]) from r.
func ReadScenarios(r io.Reader) ([]ScenarioSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var specs []ScenarioSpec
	if err := dec.Decode(&specs); err != nil {
		return nil, fmt.Errorf("sim: decoding scenarios: %w", err)
	}
	return specs, nil
}
