package fairness

import (
	"context"

	"blockadt/internal/metrics"
	"blockadt/internal/parallel"
	"blockadt/internal/prng"
)

// SweepSeeds runs one fairness analysis per derived seed across a bounded
// worker pool and returns the reports in seed order. Seed i receives the
// independent stream prng.Mix(rootSeed, i) — the same mix-from-root
// pattern as the scenario-sweep engine, keyed here by the seed index
// alone (the engine keys on the full config; the streams differ) — so a
// sweep is reproducible from rootSeed alone and bit-identical at any
// parallelism. run must be a pure function of its seed.
func SweepSeeds(rootSeed uint64, seeds, parallelism int, run func(seed uint64) Report) []Report {
	idx := make([]int, seeds)
	for i := range idx {
		idx[i] = i
	}
	out := make([]Report, 0, seeds)
	for _, r := range parallel.Stream(context.Background(), idx, parallelism, func(_ int, i int) Report {
		return run(prng.Mix(rootSeed, uint64(i)))
	}) {
		out = append(out, r)
	}
	return out
}

// Aggregate summarizes a seed sweep.
type Aggregate struct {
	// Runs is the number of reports aggregated.
	Runs int
	// TotalBlocks sums the committed blocks across runs.
	TotalBlocks int
	// MeanTVD / MaxTVD summarize the per-run total variation distances.
	MeanTVD, MaxTVD float64
	// FairRuns counts the runs within the given tolerance.
	FairRuns int
}

// AggregateReports folds a seed sweep into its summary statistics using
// the given fairness tolerance. The TVD statistics run through the
// metrics subsystem's streaming accumulator — the same fold the scenario
// sweep's AggregateSeeds uses.
func AggregateReports(reports []Report, tolerance float64) Aggregate {
	agg := Aggregate{Runs: len(reports)}
	var tvd metrics.Welford
	for _, r := range reports {
		agg.TotalBlocks += r.Total
		tvd.Add(r.TVD)
		if r.Fair(tolerance) {
			agg.FairRuns++
		}
	}
	if agg.Runs > 0 {
		agg.MeanTVD = tvd.Mean()
		agg.MaxTVD = tvd.Max()
	}
	return agg
}
