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

// TestRecycledHistoriesAreInvisible: a history's read chains and its
// analysis index live in buffers the history owns, and runScenario's
// Release recycles them into the next scenario's recorder and index.
// 600-, 30- and 600-block matrices of Bitcoin, Ethereum and Algorand run
// back to back through Run, so each scenario records and indexes into
// the chain arena and index buffers of a longer or shorter history; every
// Result (wall clock aside) must equal the reference computed before any
// of them was released, on histories that are never recycled. Then the
// CI matrix at parallelism 2, where the workers hand buffers to each
// other through the spare slot and the pool, must report what it
// reports at parallelism 1. A chain buffer carved twice, or an index
// buffer handed out with a previous history's entries, changes a verdict,
// a metric or a count.
func TestRecycledHistoriesAreInvisible(t *testing.T) {
	matrix := func(blocks int) Matrix {
		return Matrix{Systems: []string{"Bitcoin", "Ethereum", "Algorand"}, TargetBlocks: blocks, RootSeed: 42, Metrics: MetricNames()}
	}
	want := map[string]Result{}
	for _, blocks := range []int{600, 30} {
		configs, err := matrix(blocks).Configs()
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range configs {
			want[cfg.Key()] = referenceResult(t, cfg)
		}
	}
	for i, blocks := range []int{600, 30, 600} {
		rep, err := Run(matrix(blocks), 1)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Total != 3 {
			t.Fatalf("run %d: the %d-block matrix ran %d scenarios, want 3", i, blocks, rep.Total)
		}
		for _, got := range rep.Results {
			got.WallNS = 0
			if w := want[got.Config.Key()]; !reflect.DeepEqual(got, w) {
				t.Errorf("run %d, %s:\n got %+v\nwant %+v", i, got.Config.Key(), got, w)
			}
		}
	}

	var reports [2]*Report
	for i := range reports {
		rep, err := Run(ciMatrix(), i+1)
		if err != nil {
			t.Fatal(err)
		}
		rep.WallNS, rep.Parallelism = 0, 0
		for k := range rep.Results {
			rep.Results[k].WallNS = 0
		}
		reports[i] = rep
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		if len(reports[0].Results) != len(reports[1].Results) {
			t.Fatalf("the CI matrix ran %d scenarios at parallelism 2 and %d at 1", len(reports[1].Results), len(reports[0].Results))
		}
		for k := range reports[0].Results {
			if a, b := reports[0].Results[k], reports[1].Results[k]; !reflect.DeepEqual(a, b) {
				t.Fatalf("CI matrix, %s:\nparallel 2 %+v\nparallel 1 %+v", a.Config.Key(), b, a)
			}
		}
		t.Fatal("the CI matrix's report at parallelism 2 differs from parallelism 1")
	}
}
