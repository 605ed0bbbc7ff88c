// Package parallel provides the one bounded worker pool of the
// reproduction: Stream, shared by the scenario-sweep engine in
// pkg/blockadt (Run and Stream) and the fairness seed sweeps.
//
// The contract every caller relies on: Stream yields results in input
// order, runs each item exactly once, and shares nothing between items —
// so for pure per-item work the yielded sequence is bit-identical
// regardless of the worker count or the goroutine schedule. Determinism
// therefore reduces to the per-item function being deterministic, which
// the simulators guarantee by deriving an independent prng stream per
// item.
package parallel

import (
	"context"
	"iter"
	"runtime"
	"sync"
)

// Workers clamps a requested parallelism: values < 1 select NumCPU.
func Workers(requested int) int {
	if requested < 1 {
		return runtime.NumCPU()
	}
	return requested
}

// Stream applies fn to every item using at most workers concurrent
// goroutines (<1 selects NumCPU) and yields the results in input order
// as they become available. It never materializes the full result
// slice: at most ~2×workers results exist at once (in-flight plus
// reorder buffer), so arbitrarily long inputs stream in bounded memory.
// With exactly one worker (or a single item) the items run sequentially
// on the calling goroutine, with no spawn.
//
// Cancelling the context or breaking out of the iteration stops new
// items from being scheduled; items already dispatched finish on their
// workers, and the iteration returns only once every worker has exited,
// so no fn call outlives it (buffered slots mean no worker ever blocks
// on an abandoned consumer).
func Stream[T, R any](ctx context.Context, items []T, workers int, fn func(int, T) R) iter.Seq2[int, R] {
	return func(yield func(int, R) bool) {
		if len(items) == 0 {
			return
		}
		workers = Workers(workers)
		if workers > len(items) {
			workers = len(items)
		}
		if workers == 1 {
			for i, it := range items {
				if ctx.Err() != nil || !yield(i, fn(i, it)) {
					return
				}
			}
			return
		}

		// Window-gated ordered fan-out: the dispatcher admits at most
		// `window` items past the last yielded index, each worker writes
		// its result into a 1-buffered ring slot (never blocking), and
		// the consumer drains slots strictly in index order. The gate
		// guarantees index i is fully yielded before index i+window is
		// admitted, so at most `window` consecutive indices are ever in
		// flight — they map to distinct ring positions, making slot
		// reuse safe and the allocation O(workers), not O(items).
		window := 2 * workers
		slots := make([]chan R, window)
		for i := range slots {
			slots[i] = make(chan R, 1)
		}
		gate := make(chan struct{}, window)
		jobs := make(chan int)
		done := make(chan struct{})
		var wg sync.WaitGroup
		defer wg.Wait() // runs after close(done) has stopped the dispatcher
		defer close(done)

		go func() {
			defer close(jobs)
			for i := range items {
				select {
				case gate <- struct{}{}:
				case <-done:
					return
				}
				select {
				case jobs <- i:
				case <-done:
					return
				}
			}
		}()
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range jobs {
					slots[i%window] <- fn(i, items[i])
				}
			}()
		}
		for i := range items {
			var r R
			select {
			case r = <-slots[i%window]:
			case <-ctx.Done():
				return
			}
			if !yield(i, r) {
				return
			}
			<-gate
		}
	}
}
