package sim

import (
	"context"
	"io"

	"obm/internal/core"
	"obm/internal/trace"
)

// Streamed replay: a trace.Source delivers compiled requests in
// fixed-size chunks, so a replay of any length holds O(chunk) requests in
// memory. Each chunk goes through the replayer, which a materialized
// replay feeds the whole trace at once, so cost curves are bit-identical
// to materialized replay (pinned by stream_golden_test.go).

// RunSource replays src through alg in chunks of chunkSize requests
// (trace.DefaultChunkSize if <= 0), resetting the source first. Cost
// curves are bit-identical to replaying the materialized compiled trace.
func RunSource(alg core.Algorithm, src trace.Source, alpha float64, checkpoints []int, chunkSize int) (RunResult, error) {
	var res RunResult
	if err := replay(context.Background(), &res, alg, src, alpha, checkpoints, trace.NewChunk(chunkSize), ckHooks{}, nil); err != nil {
		return RunResult{}, err
	}
	return res, nil
}

// replay is RunSource writing into reusable result and chunk buffers, with
// optional mid-job checkpoints (see ckHooks): a (result, chunk) pair
// recycled across repetitions stops allocating once warm, which is what
// keeps streamed replay O(chunk). Cancellation is honored at chunk
// boundaries — a cancelled ctx aborts the replay within one chunk's worth
// of requests, never mid-chunk, so costs are either complete or discarded
// (a partial replay is an error, not a shorter curve). Elapsed covers the
// decision loop only: generation and chunk compilation inside src.Next are
// excluded, so it matches materialized replay and stays comparable to the
// paper's execution-time figures.
func replay(ctx context.Context, res *RunResult, alg core.Algorithm, src trace.Source, alpha float64, checkpoints []int, chunk *trace.CompiledChunk, ck ckHooks, met *Metrics) error {
	r := replayer{ck: ck, met: met}
	if err := r.begin(res, alg, alpha, checkpoints, src.Len()); err != nil {
		return err
	}
	src.Reset()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := src.Next(chunk)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := r.feed(chunk.Reqs[:n]); err != nil {
			return err
		}
	}
	return r.finish(src.Name())
}
