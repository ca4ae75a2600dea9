// Command perfbench is the repository's benchmark: one command that runs
// a workload in-process for a fixed time, checks the outputs, and prints
// every metric by name and unit. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"mreq_s": {"value": 1.23, "unit": "Mreq/s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// "end_to_end"); with -trace 1 the run alternates traced and untraced
// measurement windows, records spans in memory around every call the
// benchmark makes into a layer, writes them out when it ends, and prints
// the per-layer metrics plus the attribution table (README.md).
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload engine-fb64 --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// outDir, under the directory the benchmark runs in, holds its run
// stores, span dumps and results log (run.sh also keeps the build there).
const outDir = ".bench_build/perfbench"

// config is one benchmark run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// tiny shrinks every input to smoke-test size (smoke_test.go).
	tiny bool
	// dir is the run's scratch directory (stores, span dump).
	dir string
	// wrongRef corrupts the reference each output check compares
	// against, so the smoke test can prove the checks can fail.
	wrongRef bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload hands back to main.
type result struct {
	attempted int
	failed    int
	// checkErrs lists every failed output check; empty means correct.
	checkErrs []error
	// e2e and layer are the end-to-end and per-layer metrics.
	e2e   map[string]metric
	layer map[string]metric
	// attr is the traced run's attribution table (nil untraced).
	attr *attribution
	// spans is the traced run's span log (nil untraced).
	spans *recorder
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (r *result) check(err error) {
	if err != nil {
		r.checkErrs = append(r.checkErrs, err)
	}
}

// endToEnd and perLayer name every metric the two kinds of run print,
// with its unit; BENCHMARK.json lists the same (smoke_test.go checks).
var endToEnd = map[string]string{
	"setup_s":          "s",
	"mreq_s":           "Mreq/s",
	"batch_rtt_p50_us": "us",
	"batch_rtt_p99_us": "us",
	"peak_rss_mb":      "MiB",
}

var perLayer = map[string]string{
	"engine.wire_us_per_batch":    "us",
	"engine.session_ns_per_req":   "ns",
	"engine.server_batch_us_p50":  "us",
	"engine.server_batch_us_p99":  "us",
	"core.feed_ns_per_req":        "ns",
	"core.adds_per_kreq":          "count",
	"core.removals_per_kreq":      "count",
	"trace.next_ns_per_req":       "ns",
	"graph.metric_ms":             "ms",
	"sim.parallel_efficiency":     "ratio",
	"sim.fold_us_p50":             "us",
	"serve.submit_ms":             "ms",
	"serve.lease_us_p50":          "us",
	"serve.lease_us_p99":          "us",
	"serve.list_us_p50":           "us",
	"serve.complete_ms_p50":       "ms",
	"serve.complete_ms_p99":       "ms",
	"work.http_overhead_us":       "us",
	"work.shard_ms_p50":           "ms",
	"work.idle_frac":              "ratio",
	"snap.checkpoint_save_ms_p50": "ms",
	"serve.wal_appends":           "count",
	"serve.absorbed_records":      "count",
	"serve.leases_granted":        "count",
	"attr.e2e_ns_per_req":         "ns",
	"attr.unattributed_frac":      "ratio",
	"attr.tracing_overhead_frac":  "ratio",
}

// complete checks that got holds only names of want, each with its unit,
// and fills every missing name with 0: a layer the workload's path does
// not cross.
func complete(got map[string]metric, want map[string]string) error {
	for name, m := range got {
		if unit, ok := want[name]; !ok || unit != m.Unit {
			return fmt.Errorf("metric %s (%s) is not declared with that unit", name, m.Unit)
		}
	}
	for name, unit := range want {
		if _, ok := got[name]; !ok {
			got[name] = metric{0, unit}
		}
	}
	return nil
}

// workload is one workload's runner and the GOMAXPROCS it runs under
// (0 keeps one per CPU).
type workload struct {
	run   func(cfg config) (*result, error)
	procs int
}

// workloads maps each workload name to its runner. engine-fb64 is a
// closed loop at window 1, so one goroutine is busy at a time; on two
// Ps, the wake-ups between the client and the engine's connection
// goroutine crossed CPUs in some runs and not in others, and batch
// RTT p50 read about 30 or about 50 us for a whole run. One P keeps
// every run on the same path.
var workloads = map[string]workload{
	"engine-fb64":    {runEngine, 1},
	"fleet-grid":     {runFleet, 0},
	"replay-uni1024": {runReplay, 0},
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: engine-fb64, fleet-grid or replay-uni1024")
		seed     = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 10, "measured time per run")
		traced   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok {
		fatalf("unknown -workload %q", *workload)
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traced != 0,
	}
	if err := run(cfg); err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
}

// run measures cfg's workload in a scratch directory it removes again,
// and prints the machine record, the attribution (traced), any failed
// check and, last, the result line.
func run(cfg config) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, cfg.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir
	if procs := workloads[cfg.workload].procs; procs > 0 {
		runtime.GOMAXPROCS(procs)
	}
	mach := machine(cfg)
	fmt.Printf("machine: %s\n", mustJSON(mach))

	cpu0 := cpuTicks()
	res, line, err := measure(cfg)
	if err != nil {
		return err
	}
	// On a virtual machine, time the hypervisor gives to other guests
	// slows every CPU-bound figure; the share is recorded beside them.
	if steal, ok := stealShare(cpu0, cpuTicks()); ok {
		mach["cpu_steal_frac"] = steal
		fmt.Printf("host: %.1f%% of CPU time stolen by the hypervisor during the run\n", 100*steal)
	}
	if res.attr != nil {
		res.attr.print(os.Stdout)
	}
	if res.spans != nil {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := res.spans.dump(path, mach); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", res.spans.len(), path)
	}
	for _, e := range res.checkErrs {
		fmt.Printf("check FAILED: %v\n", e)
	}
	if err := appendRecord(filepath.Join(outDir, "results.jsonl"), mach, line); err != nil {
		return fmt.Errorf("recording result: %w", err)
	}
	fmt.Println(mustJSON(line))
	return nil
}

// measure runs cfg's workload and builds the result line: the
// end-to-end metrics untraced, the per-layer ones traced.
func measure(cfg config) (*result, map[string]any, error) {
	res, err := workloads[cfg.workload].run(cfg)
	if err != nil {
		return nil, nil, err
	}
	metrics, declared := res.e2e, endToEnd
	if cfg.trace {
		metrics, declared = res.layer, perLayer
	}
	if err := complete(metrics, declared); err != nil {
		return nil, nil, err
	}
	return res, map[string]any{
		"correct":   len(res.checkErrs) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	}, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("%v", err)
	}
	return string(b)
}

// appendRecord appends one result, with the machine it ran on, to the
// local results log, so every number keeps its context.
func appendRecord(path string, mach map[string]any, line map[string]any) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(f, mustJSON(map[string]any{"machine": mach, "result": line})); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// machine records what a result was measured on: CPU model, core count,
// GOMAXPROCS, Go version, the code's commit and the seed.
func machine(cfg config) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the measured code: the git commit when the benchmark runs
// at the root of a git checkout, else "tree:" plus a SHA-256 over the
// module's Go sources and go.mod (an exported tree has no commit, but the
// same tree always hashes the same).
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat (nil if absent).
func cpuTicks() []uint64 {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	ticks := make([]uint64, 0, len(fields)-1)
	for _, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil
		}
		ticks = append(ticks, v)
	}
	return ticks
}

// stealShare is the share of CPU time between two cpuTicks readings that
// the hypervisor stole (the eighth field).
func stealShare(a, b []uint64) (float64, bool) {
	if len(a) < 8 || len(b) != len(a) {
		return 0, false
	}
	var total uint64
	for i := range a {
		total += b[i] - a[i]
	}
	if total == 0 {
		return 0, false
	}
	return float64(b[7]-a[7]) / float64(total), true
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
