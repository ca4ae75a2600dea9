package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"obm/internal/core"
	"obm/internal/trace"
)

// AlgSpec names an algorithm family and knows how to instantiate it for a
// given degree cap b and repetition seed.
type AlgSpec struct {
	Name string
	// New builds the instance; rep differs per repetition so randomized
	// algorithms get fresh seeds.
	New func(b int, rep uint64) (core.Algorithm, error)
	// FixedB, when >= 0, pins the algorithm to one b regardless of the
	// sweep (used for Oblivious, which has no b).
	FixedB int
}

// Config describes one experiment: a trace replayed by several algorithm
// families across a sweep of b values, averaged over Reps repetitions.
type Config struct {
	Name        string
	Trace       *trace.Trace
	Model       core.CostModel
	Bs          []int
	Reps        int
	Checkpoints []int
	// Compiled optionally carries Trace pre-resolved against Model's
	// metric (trace.Compile), so repeated experiment runs skip
	// re-compilation. When nil the runners compile on entry.
	Compiled *trace.Compiled
}

// Curve is an averaged result annotated with its configuration.
type Curve struct {
	Alg string
	B   int
	Avg Averaged
}

// Result collects every curve of an experiment.
type Result struct {
	Name   string
	Curves []Curve
}

// compile validates cfg and pre-resolves its trace against the cost model's
// metric, shared by every (algorithm, b, repetition) replay.
func (cfg *Config) compile() (*trace.Compiled, error) {
	if cfg.Reps < 1 {
		return nil, fmt.Errorf("sim: experiment %q needs Reps >= 1", cfg.Name)
	}
	if len(cfg.Bs) == 0 {
		return nil, fmt.Errorf("sim: experiment %q needs a b sweep", cfg.Name)
	}
	if cfg.Compiled != nil {
		if cfg.Compiled.NumRacks != cfg.Trace.NumRacks || cfg.Compiled.Len() != cfg.Trace.Len() {
			return nil, fmt.Errorf("sim: experiment %q: Compiled (%d racks, %d requests) does not match Trace (%d racks, %d requests)",
				cfg.Name, cfg.Compiled.NumRacks, cfg.Compiled.Len(), cfg.Trace.NumRacks, cfg.Trace.Len())
		}
		return cfg.Compiled, nil
	}
	ct, err := cfg.Trace.Compile(cfg.Model.Metric.Dist)
	if err != nil {
		return nil, fmt.Errorf("sim: experiment %q: %w", cfg.Name, err)
	}
	return ct, nil
}

// Averaged is the mean of several runs of the same configuration with
// different seeds (the paper averages 5 repetitions).
type Averaged struct {
	Label    string
	X        []int
	Routing  []float64 // mean cumulative routing cost
	Reconfig []float64
	Elapsed  time.Duration // mean wall-clock time
	Reps     int
}

// RunExperiment executes cfg for each algorithm spec and each b. The trace
// is compiled once; the (algorithm, b) jobs run on a pool of workers
// (<= 0 selects GOMAXPROCS), each replaying through its own reused result
// buffer, so the per-run cost is the decision loops themselves. Cost
// curves are bit-identical for every worker count (each job owns its
// algorithm instances and seeds), but wall-clock Elapsed values inflate
// under CPU contention: execution-time figures run with one worker, which
// replays on the caller's goroutine. On failure every job error is
// reported, joined in job order.
func RunExperiment(cfg Config, specs []AlgSpec, workers int) (*Result, error) {
	ct, err := cfg.compile()
	if err != nil {
		return nil, err
	}
	type job struct {
		spec AlgSpec
		b    int
	}
	var jobs []job
	for _, spec := range specs {
		bs := cfg.Bs
		if spec.FixedB >= 0 {
			bs = []int{spec.FixedB}
		}
		for _, b := range bs {
			jobs = append(jobs, job{spec: spec, b: b})
		}
	}
	curves := make([]Curve, len(jobs))
	err = runPool(context.Background(), len(jobs), workers, func() func(int) error {
		var res RunResult // per-worker: reused across every job and repetition
		return func(ji int) error {
			j := jobs[ji]
			f := func(rep uint64) (core.Algorithm, error) { return j.spec.New(j.b, rep) }
			avg, err := runAveraged(f, cfg.Reps, &res, func(res *RunResult, alg core.Algorithm) error {
				return replayCompiled(res, alg, ct, cfg.Model.Alpha, cfg.Checkpoints)
			})
			if err != nil {
				return fmt.Errorf("sim: %s/%s(b=%d): %w", cfg.Name, j.spec.Name, j.b, err)
			}
			curves[ji] = Curve{Alg: j.spec.Name, B: j.b, Avg: avg}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	return &Result{Name: cfg.Name, Curves: curves}, nil
}

// AlgFactory builds a fresh algorithm instance for repetition rep.
// Deterministic algorithms can ignore rep.
type AlgFactory func(rep uint64) (core.Algorithm, error)

// runAveraged accumulates reps (>= 1) runs produced by replay into a mean
// curve, recycling res as every repetition's result buffer.
func runAveraged(f AlgFactory, reps int, res *RunResult,
	replay func(res *RunResult, alg core.Algorithm) error) (Averaged, error) {
	avg := Averaged{Reps: reps}
	var totalElapsed time.Duration
	for rep := 0; rep < reps; rep++ {
		alg, err := f(uint64(rep))
		if err != nil {
			return Averaged{}, err
		}
		if err := replay(res, alg); err != nil {
			return Averaged{}, err
		}
		if rep == 0 {
			avg.Label = res.Series.Label
			avg.X = append([]int(nil), res.Series.X...)
			avg.Routing = make([]float64, len(res.Series.Routing))
			avg.Reconfig = make([]float64, len(res.Series.Reconfig))
		}
		for i := range res.Series.Routing {
			avg.Routing[i] += res.Series.Routing[i]
			avg.Reconfig[i] += res.Series.Reconfig[i]
		}
		totalElapsed += res.Elapsed
	}
	for i := range avg.Routing {
		avg.Routing[i] /= float64(reps)
		avg.Reconfig[i] /= float64(reps)
	}
	avg.Elapsed = totalElapsed / time.Duration(reps)
	return avg, nil
}

// WriteJSON emits the experiment result as JSON (one object with the
// experiment name and the list of curves).
func (r *Result) WriteJSON(w io.Writer) error {
	type jsonCurve struct {
		Alg       string    `json:"alg"`
		B         int       `json:"b"`
		X         []int     `json:"requests"`
		Routing   []float64 `json:"routing_cost"`
		Reconfig  []float64 `json:"reconfig_cost"`
		ElapsedMS float64   `json:"elapsed_ms"`
		Reps      int       `json:"reps"`
	}
	out := struct {
		Name   string      `json:"experiment"`
		Curves []jsonCurve `json:"curves"`
	}{Name: r.Name}
	for _, c := range r.Curves {
		out.Curves = append(out.Curves, jsonCurve{
			Alg:       c.Alg,
			B:         c.B,
			X:         c.Avg.X,
			Routing:   c.Avg.Routing,
			Reconfig:  c.Avg.Reconfig,
			ElapsedMS: float64(c.Avg.Elapsed) / float64(time.Millisecond),
			Reps:      c.Avg.Reps,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteCSV emits the experiment result as tidy CSV:
// experiment,alg,b,requests,routing_cost,reconfig_cost,total_cost,elapsed_ms
func (r *Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "experiment,alg,b,requests,routing_cost,reconfig_cost,total_cost,elapsed_ms"); err != nil {
		return err
	}
	for _, c := range r.Curves {
		for i, x := range c.Avg.X {
			total := c.Avg.Routing[i] + c.Avg.Reconfig[i]
			if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%.1f,%.1f,%.1f,%.3f\n",
				r.Name, c.Alg, c.B, x, c.Avg.Routing[i], c.Avg.Reconfig[i], total,
				float64(c.Avg.Elapsed)/float64(time.Millisecond)); err != nil {
				return err
			}
		}
	}
	return nil
}

// FinalRouting returns each curve's final cumulative routing cost, keyed
// "alg(b=?)", for summary tables.
func (r *Result) FinalRouting() map[string]float64 {
	out := make(map[string]float64, len(r.Curves))
	for _, c := range r.Curves {
		if len(c.Avg.Routing) == 0 {
			continue
		}
		out[fmt.Sprintf("%s(b=%d)", c.Alg, c.B)] = c.Avg.Routing[len(c.Avg.Routing)-1]
	}
	return out
}

// SummaryRows renders "alg b final_routing elapsed_ms" rows sorted by
// algorithm then b, for terminal output.
func (r *Result) SummaryRows() []string {
	curves := append([]Curve(nil), r.Curves...)
	sort.Slice(curves, func(i, j int) bool {
		if curves[i].Alg != curves[j].Alg {
			return curves[i].Alg < curves[j].Alg
		}
		return curves[i].B < curves[j].B
	})
	rows := make([]string, 0, len(curves))
	for _, c := range curves {
		final := 0.0
		if n := len(c.Avg.Routing); n > 0 {
			final = c.Avg.Routing[n-1]
		}
		rows = append(rows, fmt.Sprintf("%-22s b=%-3d routing=%.3e  time=%8.2fms",
			c.Alg, c.B, final, float64(c.Avg.Elapsed)/float64(time.Millisecond)))
	}
	return rows
}
