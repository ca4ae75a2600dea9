package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around a public function. Parent links a span to the call that
// caused it (0 = top level); an HTTP round trip carries its span id to
// the handler in a header, so the handler's span is its child.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced run: every method is a no-op.
type recorder struct {
	origin time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// newID reserves a span id (for spans whose id must travel before they end).
func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// add records a finished span with a reserved id (0 reserves one).
func (r *recorder) add(id, parent uint64, name string, start, end time.Time) {
	if r == nil {
		return
	}
	if id == 0 {
		id = r.newID()
	}
	s := span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// dump writes the machine record and every span, one JSON object a line.
func (r *recorder) dump(path string, mach map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"machine": mach}); err != nil {
		f.Close()
		return err
	}
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// layerTimes is the per-name total duration and self time of a span set.
type layerTimes struct {
	count int
	total int64 // Σ duration
	self  int64 // Σ (duration − the part of it child spans cover)
	durs  []int64
}

// selfTimes groups spans by name. A span's self time is its duration
// minus the union of its children's intervals, clipped to the span.
func selfTimes(spans []span) map[string]*layerTimes {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerTimes)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.Name] = lt
		}
		lt.count++
		lt.total += s.dur()
		lt.self += s.dur() - covered(s, children[s.ID])
		lt.durs = append(lt.durs, s.dur())
	}
	return out
}

// covered is the length of the union of the children's intervals inside
// parent's interval.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return sum + curHi - curLo
}

// attribution puts each layer's self time per request beside the
// end-to-end time per request of the traced windows. Threads is how many
// threads the workload keeps busy on its path, so the time available per
// request is threads × wall; whatever no layer accounts for is the
// unattributed remainder.
type attribution struct {
	workload string
	requests int64
	wallNs   int64
	threads  int
	rows     []attrRow
	// mreq_s of the traced and untraced windows of the same run.
	tracedMreqS, untracedMreqS float64
}

type attrRow struct {
	layer string
	ns    float64 // self time per request
	how   string
}

func (a *attribution) e2eNsPerReq() float64 { return float64(a.wallNs) / float64(a.requests) }

func (a *attribution) capacityNsPerReq() float64 { return a.e2eNsPerReq() * float64(a.threads) }

func (a *attribution) attributed() float64 {
	var sum float64
	for _, r := range a.rows {
		sum += r.ns
	}
	return sum
}

func (a *attribution) unattributed() float64 { return a.capacityNsPerReq() - a.attributed() }

// overhead is the traced windows' throughput loss against the untraced ones.
func (a *attribution) overhead() float64 { return 1 - a.tracedMreqS/a.untracedMreqS }

func (a *attribution) print(w io.Writer) {
	fmt.Fprintf(w, "attribution %s: %d requests in traced windows, %d thread(s) on the path\n", a.workload, a.requests, a.threads)
	fmt.Fprintf(w, "  %-22s %12s %7s  %s\n", "layer", "ns/req", "share", "measured as")
	capNs := a.capacityNsPerReq()
	for _, r := range a.rows {
		fmt.Fprintf(w, "  %-22s %12.2f %6.1f%%  %s\n", r.layer, r.ns, 100*r.ns/capNs, r.how)
	}
	fmt.Fprintf(w, "  %-22s %12.2f %6.1f%%  %s\n", "unattributed", a.unattributed(), 100*a.unattributed()/capNs, "threads × wall − Σ layers")
	fmt.Fprintf(w, "  %-22s %12.2f %6.1f%%  wall ns/req = %.2f\n", "end-to-end", capNs, 100.0, a.e2eNsPerReq())
	fmt.Fprintf(w, "  tracing overhead: traced %.4f Mreq/s vs untraced %.4f Mreq/s (%.1f%%)\n",
		a.tracedMreqS, a.untracedMreqS, 100*a.overhead())
}

// metrics exports the table as per-layer metrics.
func (a *attribution) metrics(into map[string]metric) {
	into["attr.e2e_ns_per_req"] = metric{a.e2eNsPerReq(), "ns"}
	into["attr.unattributed_frac"] = metric{a.unattributed() / a.capacityNsPerReq(), "ratio"}
	into["attr.tracing_overhead_frac"] = metric{a.overhead(), "ratio"}
}
