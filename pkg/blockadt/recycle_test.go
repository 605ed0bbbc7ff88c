package blockadt

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"blockadt/internal/chains"
	"blockadt/internal/fairness"
	"blockadt/internal/metrics"
	"blockadt/internal/parallel"
)

// unequalScenarios expands three matrices whose histories differ widely
// in size: a 600-block Bitcoin run, a 30-block lossy run (whose history
// outgrows the recorder's reservation, so it grows its buffer mid-run)
// and a 30-block selfish-mining run (whose harness reserves nothing).
// Run on one worker they hand each other their history buffers.
func unequalScenarios(t *testing.T) []Scenario {
	t.Helper()
	var out []Scenario
	for _, m := range []Matrix{
		{Systems: []string{"Bitcoin"}, TargetBlocks: 600, RootSeed: 42},
		{Systems: []string{"Bitcoin"}, Links: []string{LinkLossy}, TargetBlocks: 30, RootSeed: 42},
		{Systems: []string{"Bitcoin"}, Adversaries: []string{AdvSelfish}, TargetBlocks: 30, RootSeed: 42},
	} {
		configs, err := m.Configs()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, configs...)
	}
	return out
}

// referenceResult computes a scenario's Result through the public
// Simulate/SimulateAdversary and ClassifyRun, whose histories are
// returned to the caller and so never recycled; the expected level comes
// from the prediction rule and the metrics from that unreleased history.
func referenceResult(t *testing.T, cfg Scenario) Result {
	t.Helper()
	opts := []Option{WithN(cfg.N), WithBlocks(cfg.Blocks), WithSeed(cfg.Seed), WithLink(cfg.Link)}
	out := Result{Config: cfg}
	var res SimResult
	adversarial := cfg.Adversary != AdvNone
	if !adversarial {
		var err error
		if res, err = Simulate(cfg.System, opts...); err != nil {
			t.Fatal(err)
		}
		out.FairnessTVD = fairness.Analyze(res.History, equalMerits(cfg.N)).TVD
	} else {
		ao, err := SimulateAdversary(cfg.System, cfg.Adversary, append(opts, WithAlpha(cfg.Alpha))...)
		if err != nil {
			t.Fatal(err)
		}
		res = ao.SimResult
		out.FairnessTVD, out.AdversaryShare = ao.FairnessTVD, ao.AdversaryShare
	}
	spec, err := LookupSystem(cfg.System)
	if err != nil {
		t.Fatal(err)
	}
	p := SimParams{N: cfg.N, TargetBlocks: cfg.Blocks, Seed: cfg.Seed}
	level := ClassifyRun(p, res).Level
	expected := expectedLevel(spec.Expected, level, res.History, chains.Options(p, res.History))
	out.Refinement, out.Expected, out.Level, out.Match = res.Refinement, expected.String(), level.String(), level.AtLeast(expected)
	out.Blocks, out.Forks, out.Ticks = res.Blocks, res.Forks, res.Ticks
	out.Delivered, out.Dropped = res.Delivered, res.Dropped
	out.MaxReorg = metrics.MaxReorg(res.History)
	out.FinalityDepth = out.MaxReorg + 1
	specs, err := Matrix{Metrics: MetricNames()}.metricSpecs()
	if err != nil {
		t.Fatal(err)
	}
	out.Metrics = computeMetrics(specs, metricRun(cfg, res, out, adversarial))
	return out
}

// runEngine executes configs on the sweep engine's worker pool, as Run
// does, with every metric collected.
func runEngine(t *testing.T, configs []Scenario, parallelism int) []Result {
	t.Helper()
	specs, err := Matrix{Metrics: MetricNames()}.metricSpecs()
	if err != nil {
		t.Fatal(err)
	}
	runner := newSweepRunner(runConfig{}, nil, specs)
	ctx := context.Background()
	var results []Result
	for _, r := range parallel.Stream(ctx, configs, parallelism, func(i int, cfg Scenario) Result {
		return runner.exec(ctx, i, cfg)
	}) {
		results = append(results, r)
	}
	if err := runner.err(); err != nil {
		t.Fatal(err)
	}
	return results
}

// TestRecycledHistoriesMatchFreshRuns: scenarios that record into the
// buffers of released histories produce the Results that unrecycled runs
// produce, whatever ran before them on the same worker. The unequal
// scenarios run on one worker in two orders and on two workers, and every
// Result (wall clock aside) must equal the Simulate + ClassifyRun
// reference. Releasing a history before its last reader would hand a
// later scenario's ops, or an emptied history, to the classifier.
func TestRecycledHistoriesMatchFreshRuns(t *testing.T) {
	configs := unequalScenarios(t)
	want := map[string]Result{}
	for _, cfg := range configs {
		want[cfg.Key()] = referenceResult(t, cfg)
	}
	reversed := slices.Clone(configs)
	slices.Reverse(reversed)
	for _, run := range []struct {
		order       string
		configs     []Scenario
		parallelism int
	}{{"forward", configs, 1}, {"reversed", reversed, 1}, {"forward", configs, 2}} {
		t.Run(fmt.Sprintf("parallel=%d/%s", run.parallelism, run.order), func(t *testing.T) {
			for _, got := range runEngine(t, run.configs, run.parallelism) {
				got.WallNS = 0
				if w := want[got.Config.Key()]; !reflect.DeepEqual(got, w) {
					t.Errorf("%s:\n got %+v\nwant %+v", got.Config.Key(), got, w)
				}
			}
		})
	}
}
