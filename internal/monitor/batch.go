package monitor

import (
	"context"
	"sync"

	"repro/internal/parallel"
	"repro/internal/relation"
)

// FixBatch fixes many input tuples concurrently against the shared
// immutable (Σ, Dm) on at most workers goroutines (≤ 0 selects
// GOMAXPROCS), driving userFor(i) for tuple i. Results are aligned with
// inputs; the first error wins and is returned after all workers drain
// (the internal/parallel contract). Once ctx is done no further tuples
// are dispatched, in-flight sessions stop at their next round boundary,
// and the call returns ctx.Err() after the pool drains (a job error
// still wins).
//
// Assert implementations must be safe for concurrent use across workers
// when userFor hands out shared state.
//
// With the default configuration the output is byte-identical to calling
// Fix sequentially over the same inputs: tuples are independent and every
// stage is deterministic. Under Config.UseBDD (CertainFix+) the final
// tuples are still correct certain fixes, but cached suggestions depend
// on the order fixes populate the cache, so round counts and per-round
// snapshots may differ from a sequential run.
func (m *Monitor) FixBatch(ctx context.Context, inputs []relation.Tuple, userFor func(i int) User, workers int) ([]Result, error) {
	return parallel.MapCtx(ctx, len(inputs), workers, func(i int) (Result, error) {
		return m.Fix(ctx, inputs[i], userFor(i))
	})
}

// StreamRequest is one unit of work for FixStream.
type StreamRequest struct {
	// ID is a caller-chosen correlation id echoed on the response.
	ID    int
	Tuple relation.Tuple
	User  User
}

// StreamResult is the outcome of one StreamRequest.
type StreamResult struct {
	ID     int
	Result Result
	Err    error
}

// FixStream consumes requests until in is closed or ctx is done and emits
// one StreamResult per request, in completion order (use ID to
// correlate), from workers goroutines (≤ 0 selects GOMAXPROCS). The
// returned channel is closed after the last result. This is the
// entry-point-shaped API of the paper's monitoring framework: tuples are
// fixed as they arrive, concurrently, against the shared immutable
// master. Like FixBatch, Users sharing state must be safe for concurrent
// use.
//
// When ctx is done the workers stop consuming requests (whether or not
// in is ever closed), in-flight fixes stop at their next round boundary
// with ctx.Err() as their result error, and the output channel is closed
// after the workers drain. Requests already buffered in the channel but
// not yet picked up are dropped, and delivery of results completing
// *during* the cancellation is best-effort: a consumer still draining the
// channel receives them, one that stopped reading does not (the workers
// must not block forever on an abandoned channel).
func (m *Monitor) FixStream(ctx context.Context, in <-chan StreamRequest, workers int) <-chan StreamResult {
	out := make(chan StreamResult)
	workers = parallel.Clamp(workers, -1)
	done := ctx.Done()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var req StreamRequest
				var ok bool
				select {
				case <-done:
					return
				case req, ok = <-in:
					if !ok {
						return
					}
				}
				res, err := m.Fix(ctx, req.Tuple, req.User)
				// Prefer delivery over teardown: the non-blocking send
				// wins when the consumer is already waiting, so a result
				// racing the cancellation still reaches a draining
				// consumer instead of being dropped by a random select.
				select {
				case out <- StreamResult{ID: req.ID, Result: res, Err: err}:
				default:
					select {
					case out <- StreamResult{ID: req.ID, Result: res, Err: err}:
					case <-done:
						return
					}
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}
