// Package parallel is the tree's one worker pool, shared by the
// experiments (internal/experiments: every tuple of a run and every point
// of a sweep), the batch fixing pipeline (internal/monitor), the public
// batch repair API (pkg/certainfix), and the master, Merkle-tree and
// rule-mining builds: results aligned with input indexes, the
// lowest-index error winning after all workers drain.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// WorkerPanic wraps a panic recovered on a pool worker so it can be
// re-raised on the calling goroutine instead of crashing the process from
// a goroutine the caller never sees. Index is the job that panicked (-1
// when a newWorker constructor panicked), Value the original panic value,
// Stack the worker-side stack at recovery time.
type WorkerPanic struct {
	Index int
	Value any
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("parallel: job %d panicked: %v\n%s", p.Index, p.Value, p.Stack)
}

// Clamp bounds a requested worker count: non-positive selects GOMAXPROCS,
// and the result never exceeds n jobs (n < 0 means unbounded) nor drops
// below 1.
func Clamp(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n >= 0 && workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Map computes fn over the indexes [0, n) on a bounded worker pool,
// preserving result order. The first error wins and is returned after all
// workers drain.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return MapWorkers(n, workers, func() func(i int) (T, error) { return fn })
}

// MapCtx is Map with cancellation: once ctx is done, no further jobs are
// dispatched (in-flight jobs finish — fn is responsible for observing ctx
// itself if jobs are long), and after the pool drains ctx's error is
// returned when no job error preceded it.
func MapCtx[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return MapWorkersCtx(ctx, n, workers, func() func(i int) (T, error) { return fn })
}

// MapWorkers is Map with per-worker state: newWorker runs once on each
// worker goroutine and returns the job function that worker uses, so
// workers can pin private scratch (e.g. a per-worker deriver) without
// synchronization.
//
// A panic in a job (or in newWorker) is recovered on the worker, the
// remaining jobs still run on the surviving workers, and after the pool
// drains the panic is re-raised on the calling goroutine as a
// *WorkerPanic — deterministically the lowest-index one when several jobs
// panicked. Without the recovery a worker-goroutine panic would kill the
// whole process with a stack the caller cannot defend against.
func MapWorkers[T any](n, workers int, newWorker func() func(i int) (T, error)) ([]T, error) {
	return MapWorkersCtx(context.Background(), n, workers, newWorker)
}

// MapWorkersCtx is MapWorkers with the cancellation semantics of MapCtx.
// Error precedence after the drain: worker panics re-raise first, then
// the first job error, then ctx.Err().
func MapWorkersCtx[T any](ctx context.Context, n, workers int, newWorker func() func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	pans := make([]*WorkerPanic, n)
	var initPanic *WorkerPanic
	var initOnce sync.Once
	workers = Clamp(workers, n)
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn, ok := safeNewWorker(newWorker, &initOnce, &initPanic)
			for i := range jobs {
				if !ok {
					continue // constructor panicked: drain so the feeder never blocks
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							pans[i] = &WorkerPanic{Index: i, Value: r, Stack: debug.Stack()}
						}
					}()
					out[i], errs[i] = fn(i)
				}()
			}
		}()
	}
	done := ctx.Done()
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-done:
			break feed // cancelled: stop dispatching, let in-flight jobs finish
		}
	}
	close(jobs)
	wg.Wait()
	if initPanic != nil {
		panic(initPanic)
	}
	for _, p := range pans {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// safeNewWorker runs a worker constructor under recovery; ok is false when
// it panicked (the first such panic is recorded).
func safeNewWorker[T any](newWorker func() func(i int) (T, error), once *sync.Once, slot **WorkerPanic) (fn func(i int) (T, error), ok bool) {
	defer func() {
		if r := recover(); r != nil {
			once.Do(func() { *slot = &WorkerPanic{Index: -1, Value: r, Stack: debug.Stack()} })
		}
	}()
	return newWorker(), true
}
