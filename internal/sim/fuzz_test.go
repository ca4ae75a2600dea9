package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"obm/internal/trace"
)

// fuzzSpec is the fixed scenario every FuzzRestore iteration restores
// into: small enough to rebuild per input, real enough to cover the bank,
// counters and matching decode paths.
func fuzzSpec(shards int) ScenarioSpec {
	return ScenarioSpec{
		Name: "fuzz", Family: "uniform",
		Racks: 16, Requests: 2000, Seed: 11,
		Alpha: 30.0, Bs: []int{2}, Algs: []string{"r-bma"},
		Shards: shards,
	}
}

// fuzzBlob replays n requests through a fresh instance and snapshots it —
// a structurally valid seed input for the fuzzer to mutate.
func fuzzBlob(f *testing.F, spec ScenarioSpec, alg string, n int) []byte {
	f.Helper()
	a, err := spec.BuildAlgorithm(alg, 2, 3)
	if err != nil {
		f.Fatal(err)
	}
	src, err := spec.NewSource()
	if err != nil {
		f.Fatal(err)
	}
	in := NewIncremental(a, spec.Alpha)
	if err := replaySpan(in, src, 0, n, nil); err != nil {
		f.Fatal(err)
	}
	var b bytes.Buffer
	if err := in.Snapshot(&b); err != nil {
		f.Fatal(err)
	}
	return b.Bytes()
}

// FuzzRestore feeds arbitrary bytes to the full snapshot decode stack
// (OBMI header, counters, algorithm sections, CRC): corrupt input must
// error — never panic, never allocate proportionally to attacker-chosen
// lengths, never leave a half-restored instance that later misbehaves. An
// input that does restore must round-trip: serving more requests and
// re-snapshotting must both succeed.
func FuzzRestore(f *testing.F) {
	f.Add(fuzzBlob(f, fuzzSpec(1), "r-bma", 0))
	f.Add(fuzzBlob(f, fuzzSpec(1), "r-bma", 500))
	f.Add(fuzzBlob(f, fuzzSpec(1), "r-bma", 2000))
	f.Add(fuzzBlob(f, fuzzSpec(4), "r-bma", 700))
	f.Add(fuzzBlob(f, fuzzSpec(1), "bma", 300))
	f.Add(fuzzBlob(f, fuzzSpec(1), "oblivious", 100))
	f.Add([]byte("OBMI"))
	f.Add([]byte{})

	specs := []ScenarioSpec{fuzzSpec(1), fuzzSpec(4)}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, spec := range specs {
			alg, err := spec.BuildAlgorithm("r-bma", 2, 3)
			if err != nil {
				t.Fatal(err)
			}
			in := NewIncremental(alg, spec.Alpha)
			if err := in.Restore(bytes.NewReader(data)); err != nil {
				continue
			}
			// Successful restore ⇒ the instance must be fully usable.
			if ca, ok := alg.(interface{ CheckCacheInvariant() error }); ok {
				if err := ca.CheckCacheInvariant(); err != nil {
					t.Fatalf("restore accepted a blob violating invariants: %v", err)
				}
			}
			src, err := spec.NewSource()
			if err != nil {
				t.Fatal(err)
			}
			served := int(in.Counters().Served)
			if served < 0 || served > spec.Requests {
				t.Fatalf("restore accepted served=%d outside [0,%d]", served, spec.Requests)
			}
			if err := replaySpan(in, src, served, min(served+64, spec.Requests), nil); err != nil {
				t.Fatalf("restored instance cannot serve: %v", err)
			}
			var out bytes.Buffer
			if err := in.Snapshot(&out); err != nil {
				t.Fatalf("restored instance cannot re-snapshot: %v", err)
			}
		}
	})
}

// FuzzRestoreSharded drives the multi-plane decode path (per-plane
// sections under one outer CRC) with the sharded instance as the restore
// target.
func FuzzRestoreSharded(f *testing.F) {
	f.Add(fuzzBlob(f, fuzzSpec(4), "r-bma", 0))
	f.Add(fuzzBlob(f, fuzzSpec(4), "r-bma", 1200))
	f.Add(fuzzBlob(f, fuzzSpec(1), "r-bma", 400))
	spec := fuzzSpec(4)
	f.Fuzz(func(t *testing.T, data []byte) {
		alg, err := spec.BuildAlgorithm("r-bma", 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		in := NewIncremental(alg, spec.Alpha)
		if err := in.Restore(bytes.NewReader(data)); err != nil {
			return
		}
		var out bytes.Buffer
		if err := in.Snapshot(&out); err != nil {
			t.Fatalf("restored instance cannot re-snapshot: %v", err)
		}
	})
}

// fuzzCheckpoints is the curve schedule every FuzzReplayCheckpoint replay
// records.
func fuzzCheckpoints(spec ScenarioSpec) []int { return Checkpoints(spec.Requests, 5) }

// fuzzReplay replays spec's r-bma job from scratch in 256-request chunks,
// with ck as the checkpoint hooks.
func fuzzReplay(spec ScenarioSpec, ck ckHooks) (RunResult, error) {
	var res RunResult
	alg, err := spec.BuildAlgorithm("r-bma", 2, 3)
	if err != nil {
		return res, err
	}
	src, err := spec.NewSource()
	if err != nil {
		return res, err
	}
	err = replay(context.Background(), &res, alg, src, spec.Alpha, fuzzCheckpoints(spec), trace.NewChunk(256), ck, nil)
	return res, err
}

// fuzzCheckpointBlob returns a real replay-checkpoint blob of spec's job:
// the first one saved at or after request at, or, for at == 0, one frozen
// before the first request.
func fuzzCheckpointBlob(f *testing.F, spec ScenarioSpec, at int) []byte {
	f.Helper()
	if at == 0 {
		alg, err := spec.BuildAlgorithm("r-bma", 2, 3)
		if err != nil {
			f.Fatal(err)
		}
		var res RunResult
		m := newCostMeter(&res, fuzzCheckpoints(spec), alg, spec.Alpha)
		blob, err := saveReplayCheckpoint(&m, 0, 0)
		if err != nil {
			f.Fatal(err)
		}
		return blob
	}
	var blob []byte
	_, err := fuzzReplay(spec, ckHooks{every: at, save: func(b []byte) error {
		if blob == nil {
			blob = append([]byte(nil), b...)
		}
		return nil
	}})
	if err != nil || blob == nil {
		f.Fatalf("no checkpoint saved at %d: %v", at, err)
	}
	return blob
}

// FuzzReplayCheckpoint feeds arbitrary bytes to a checkpointed replay as
// the resume blob, the way a run store hands back a file read from disk.
// A checkpoint is only an optimization, so whatever the bytes hold the
// replay must neither panic nor fail, and it must always yield a curve
// sampled exactly at the checkpoint schedule.
func FuzzReplayCheckpoint(f *testing.F) {
	f.Add(fuzzCheckpointBlob(f, fuzzSpec(1), 0))
	f.Add(fuzzCheckpointBlob(f, fuzzSpec(1), 900))
	f.Add(fuzzCheckpointBlob(f, fuzzSpec(4), 0))
	f.Add(fuzzCheckpointBlob(f, fuzzSpec(4), 1300))
	f.Add([]byte("OBMC"))
	f.Add([]byte{})

	specs := []ScenarioSpec{fuzzSpec(1), fuzzSpec(4)}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, spec := range specs {
			res, err := fuzzReplay(spec, ckHooks{load: func() ([]byte, bool) { return data, true }})
			if err != nil {
				t.Fatalf("replay failed on a checkpoint blob: %v", err)
			}
			if want := fuzzCheckpoints(spec); !reflect.DeepEqual(res.Series.X, want) {
				t.Fatalf("curve sampled at %v, want %v", res.Series.X, want)
			}
		}
	})
}
