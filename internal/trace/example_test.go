package trace_test

import (
	"fmt"
	"io"

	"obm/internal/trace"
)

// ExampleFacebookStyle synthesizes a workload with the spatial skew and
// temporal locality of the paper's Facebook traces.
func ExampleFacebookStyle() {
	p := trace.FacebookPreset(trace.Database, 50, 1)
	p.Requests = 10000
	tr, err := trace.FacebookStyle(p)
	if err != nil {
		panic(err)
	}
	c := trace.Analyze(tr)
	fmt.Printf("requests=%d skewed=%v temporal=%v\n",
		tr.Len(), c.PairGini > 0.5, c.TemporalScore > 0.05)
	// Output: requests=10000 skewed=true temporal=true
}

// ExampleNewUniformStream drives a trace.Stream by hand: requests arrive
// in caller-sized batches, Reset rewinds bit-identically, and the
// sequence is independent of the batch sizes used to read it.
func ExampleNewUniformStream() {
	s, err := trace.NewUniformStream(10, 5000, 42)
	if err != nil {
		panic(err)
	}
	var buf [64]trace.Request
	n := s.Next(buf[:])
	first := buf[0]
	total := n
	for {
		k := s.Next(buf[:])
		if k == 0 {
			break
		}
		total += k
	}
	s.Reset()
	s.Next(buf[:1])
	fmt.Printf("total=%d len=%d replayed=%v\n", total, s.Len(), buf[0] == first)
	// Output: total=5000 len=5000 replayed=true
}

// ExampleNewSource compiles a raw request stream against a distance
// oracle chunk by chunk — the bounded-memory replay path: however long
// the trace, only one chunk of compiled requests exists at a time.
func ExampleNewSource() {
	s, err := trace.NewPhaseShiftStream(8, 10000, 4, 7)
	if err != nil {
		panic(err)
	}
	// A toy metric: all rack pairs at distance 4 (a fat-tree's inter-pod
	// distance); real callers pass graph.Metric.Dist.
	src, err := trace.NewSource(s, func(u, v int) int { return 4 })
	if err != nil {
		panic(err)
	}
	chunk := trace.NewChunk(256)
	compiled := 0
	var firstDist int32
	for {
		n, err := src.Next(chunk)
		if err == io.EOF {
			break
		}
		if err != nil {
			panic(err)
		}
		if compiled == 0 {
			firstDist = chunk.Reqs[0].Dist
		}
		compiled += n
	}
	fmt.Printf("compiled=%d chunkcap=%d dist=%d\n",
		compiled, cap(chunk.Reqs), firstDist)
	// Output: compiled=10000 chunkcap=256 dist=4
}

// ExampleMakePairKey demonstrates the canonical unordered-pair encoding
// that all per-pair state is keyed by.
func ExampleMakePairKey() {
	k := trace.MakePairKey(7, 3)
	u, v := k.Endpoints()
	fmt.Println(u, v)
	// Output: 3 7
}
