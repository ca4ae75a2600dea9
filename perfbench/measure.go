package main

import (
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times a run builds its set-up; setup_s is the
// median, so one slow build (a page-cache miss, a GC) does not move it.
const setupReps = 3

// setupMedian runs build setupReps times, calling teardown between builds
// so only the last one survives, and returns the median build time in
// seconds. A collection after each teardown keeps the discarded builds'
// garbage out of the run's peak RSS.
func setupMedian(build func() error, teardown func()) (float64, error) {
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			teardown()
			runtime.GC()
		}
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// windows collects throughput per measurement window. A traced run
// alternates traced and untraced windows, so the tracing overhead is
// measured under the same conditions as the traced numbers.
type windows struct {
	untraced, traced []float64 // Mreq/s per window
	// rttP50 and rttP99 are the quantiles of the unit latencies inside
	// each untraced window, us.
	rttP50, rttP99 []float64
	// tracedReqs and tracedWall total the traced windows.
	tracedReqs int64
	tracedWall time.Duration
}

func (w *windows) add(traced bool, reqs int64, d time.Duration) {
	rate := float64(reqs) / d.Seconds() / 1e6
	if traced {
		w.traced = append(w.traced, rate)
		w.tracedReqs += reqs
		w.tracedWall += d
		return
	}
	w.untraced = append(w.untraced, rate)
}

// addLatencies records one untraced window's unit latencies, us.
func (w *windows) addLatencies(us []float64) {
	if len(us) == 0 {
		return
	}
	w.rttP50 = append(w.rttP50, quantile(us, 0.5))
	w.rttP99 = append(w.rttP99, quantile(us, 0.99))
}

// latencyMetrics sets batch_rtt_p50_us and batch_rtt_p99_us: each the
// median over the untraced windows of that quantile inside the window, so
// one disturbed window cannot move the run's figure.
func (w *windows) latencyMetrics(into map[string]metric) {
	into["batch_rtt_p50_us"] = metric{median(w.rttP50), "us"}
	into["batch_rtt_p99_us"] = metric{median(w.rttP99), "us"}
}

// tracedWindow reports whether window i of a run is traced: every other
// window of a traced run, none of an untraced one.
func tracedWindow(cfg config, i int) bool { return cfg.trace && i%2 == 1 }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// durationsUs converts nanosecond durations to microseconds.
func durationsUs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, d := range ns {
		out[i] = float64(d) / 1e3
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
