package blockadt

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"iter"

	"blockadt/internal/parallel"
)

// Sweep is a matrix expanded once: its scenarios, resolved metric
// collectors and run-store keys. Expand builds it; its Stream executes
// it as often as asked without expanding again, and Keys and
// Fingerprint read the addresses it already built. A Sweep is
// read-only after Expand and safe for concurrent use.
type Sweep struct {
	m       Matrix
	configs []Scenario
	specs   []MetricSpec
	keys    []string // run-store key per scenario, in expansion order
}

// Expand validates and expands the matrix once (Matrix.Configs),
// resolves its metric collectors and builds every scenario's run-store
// key. It errors on the inputs Configs rejects (unknown names, bad
// alpha, bad shard spec, an oversized cross product).
func Expand(m Matrix) (*Sweep, error) {
	configs, specs, err := m.expand()
	if err != nil {
		return nil, err
	}
	return &Sweep{
		m:       m,
		configs: configs,
		specs:   specs,
		keys:    storeKeys(m.RootSeed, configs, metricSet(m.Metrics)),
	}, nil
}

// Len is the number of scenarios the matrix expanded to.
func (s *Sweep) Len() int { return len(s.configs) }

// Keys returns the run-store key of every scenario, in expansion order:
// the addresses a sweep of this matrix reads and writes. The slice is
// the sweep's own and must not be modified.
func (s *Sweep) Keys() []string { return s.keys }

// Fingerprint returns the matrix's content address: a hex SHA-256 over
// the engine version and every scenario's store key (which folds in the
// root seed, canonical scenario coordinates, derived seeds and sorted
// metric set). Two matrices get the same fingerprint exactly when a
// sweep of each would read and write the same store entries under the
// same engine — making it the natural sweep identity and HTTP ETag for a
// cache-first sweep service.
func (s *Sweep) Fingerprint() string {
	h := sha256.New()
	h.Write([]byte(EngineVersion))
	var b []byte
	for _, k := range s.keys {
		b = append(append(b[:0], 0), k...)
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Stream expands the matrix and streams it: Expand followed by
// (*Sweep).Stream. An expansion error is the first and only pair.
func Stream(ctx context.Context, m Matrix, parallelism int, opts ...RunOption) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		sw, err := Expand(m)
		if err != nil {
			yield(Result{}, err)
			return
		}
		sw.Stream(ctx, parallelism, opts...)(yield)
	}
}

// Stream yields the sweep's results in matrix-expansion order as they
// complete across a bounded pool of the given parallelism (<1 selects
// NumCPU) — without buffering the full report, so arbitrarily large
// sweeps run in bounded memory. It is the sweep engine's one executor:
// Run collects its results into a Report.
//
// The first yielded pair carries a non-nil error (and a zero Result) if
// a scenario fails, the run store fails, or the context is cancelled;
// iteration stops after any error. Breaking out of the loop tears the
// sweep down promptly: the inner pool is cancelled, so scenarios that
// have not started are skipped instead of finishing in the background,
// and scenarios already simulating run to completion (and, with a store,
// persist, so the next resume starts from every scenario that finished).
// With WithRunStore, cached scenarios are served from the run store
// without simulating and misses are computed and persisted.
func (s *Sweep) Stream(ctx context.Context, parallelism int, opts ...RunOption) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		rcfg := applyRunOptions(opts)
		runner := newSweepRunner(rcfg, s.keys, s.specs)
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
		for _, r := range parallel.Stream(inner, s.configs, parallelism, func(i int, cfg Scenario) Result {
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
		err := failed()
		if err == nil {
			err = runner.finish(rcfg.storeGC, s)
		}
		if err != nil {
			yield(Result{}, err)
		}
	}
}
