// Package par provides small parallel-execution helpers used across the
// simulator: bounded parallel for-loops over index ranges and work items,
// and a map helper that preserves result order. They exist so that the
// embarrassingly parallel parts of the reproduction — the KT tree's
// build and repair sweeps, the oracle round's sweeps, multi-trial
// experiment runs — saturate the available cores without each call site
// re-implementing a worker pool.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the worker count used when a caller passes a
// non-positive count: the number of usable CPUs.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// For runs fn(i) for every i in [0, n) using up to workers goroutines
// (DefaultWorkers if workers <= 0). Iterations are handed out dynamically
// (atomic counter), so uneven per-iteration cost still balances. For
// blocks until every iteration completes. It is a no-op for n <= 0.
func For(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForChunked runs fn(lo, hi) over contiguous chunks that partition [0, n),
// using up to workers goroutines. It suits loops whose per-element cost is
// tiny and uniform, where the atomic handout of For would dominate.
// Chunks are sized so each worker receives a few, preserving some dynamic
// balance. It blocks until all chunks complete.
func ForChunked(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		fn(0, n)
		return
	}
	// 4 chunks per worker keeps stragglers short without excess handouts.
	chunk := n / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// Map applies fn to every element of in, in parallel, and returns the
// results in input order.
func Map[T, U any](in []T, workers int, fn func(T) U) []U {
	out := make([]U, len(in))
	For(len(in), workers, func(i int) {
		out[i] = fn(in[i])
	})
	return out
}

// MapErr applies fn to every element of in, in parallel. If any call
// returns a non-nil error, MapErr returns the error of the
// lowest-indexed failing element (deterministic) along with the partial
// results; fn is still invoked for every element.
func MapErr[T, U any](in []T, workers int, fn func(T) (U, error)) ([]U, error) {
	out := make([]U, len(in))
	errs := make([]error, len(in))
	For(len(in), workers, func(i int) {
		out[i], errs[i] = fn(in[i])
	})
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
