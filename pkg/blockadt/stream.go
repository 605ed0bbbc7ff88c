package blockadt

import (
	"context"
	"iter"

	"blockadt/internal/parallel"
)

// Stream expands the matrix and yields its results in matrix-expansion
// order as they complete across a bounded pool of the given parallelism
// (<1 selects NumCPU) — without buffering the full report, so arbitrarily
// large sweeps run in bounded memory. It is the sweep engine's one
// executor: Run collects its results into a Report.
//
// The first yielded pair carries a non-nil error (and a zero Result) if
// the matrix fails to expand, a scenario fails, the run store fails, or
// the context is cancelled; iteration stops after any error. Breaking
// out of the loop tears the sweep down promptly: the inner pool is
// cancelled, so scenarios that have not started are skipped instead of
// finishing in the background, and scenarios already simulating run to
// completion (and, with a store, persist, so the next resume starts from
// every scenario that finished). With WithRunStore, cached scenarios are
// served from the run store without simulating and misses are computed
// and persisted.
func Stream(ctx context.Context, m Matrix, parallelism int, opts ...RunOption) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		configs, err := m.Configs()
		var specs []MetricSpec
		if err == nil {
			specs, err = m.metricSpecs()
		}
		if err != nil {
			yield(Result{}, err)
			return
		}
		rcfg := applyRunOptions(opts)
		runner := newSweepRunner(rcfg, m, configs, specs)
		failed := func() error {
			if err := ctx.Err(); err != nil {
				return err
			}
			return runner.err()
		}
		// The inner context tears the pool down when the consumer breaks
		// out (or an error path returns): queued scenarios observe the
		// cancellation and skip simulating.
		inner, cancel := context.WithCancel(ctx)
		defer cancel()
		for _, r := range parallel.Stream(inner, configs, parallelism, func(i int, cfg Scenario) Result {
			return runner.exec(inner, i, cfg)
		}) {
			if err := failed(); err != nil {
				yield(Result{}, err)
				return
			}
			if !yield(r, nil) {
				return
			}
		}
		// The inner stream stops silently when the context fires between
		// yields; surface the cancellation as the final pair.
		err = failed()
		if err == nil {
			err = runner.finish(rcfg.storeGC, m)
		}
		if err != nil {
			yield(Result{}, err)
		}
	}
}
