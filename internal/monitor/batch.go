package monitor

import (
	"context"

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
