package blockadt

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"blockadt/internal/chains"
	"blockadt/internal/fairness"
)

// metricsTestMatrix is a small multi-dimensional matrix with collection
// enabled: honest and adversarial scenarios, several seeds per point.
// Systems are pinned so registrations made by other tests cannot change
// the expansion under us.
func metricsTestMatrix() Matrix {
	return Matrix{
		Systems:      []string{"Bitcoin", "Hyperledger"},
		Links:        []string{LinkSync, LinkPsync},
		Adversaries:  []string{AdvNone, AdvSelfish},
		Seeds:        3,
		TargetBlocks: 15,
		RootSeed:     42,
		Metrics:      MetricNames(),
	}
}

// TestMetricsSweepDeterministicAcrossParallelism is the acceptance
// regression: metrics-enabled sweep JSON and the aggregated stats report
// are byte-identical at parallelism 1 and NumCPU, whether fed from the
// buffered Run or the streaming path.
func TestMetricsSweepDeterministicAcrossParallelism(t *testing.T) {
	m := metricsTestMatrix()
	serial, err := Run(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallelRep, err := Run(m, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	j1, err := serial.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := parallelRep.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("metrics-enabled sweep JSON differs between parallelism 1 and NumCPU")
	}

	s1 := &StatsReport{RootSeed: m.RootSeed, Total: serial.Total, Configs: AggregateSeeds(serial.Results)}
	s2 := &StatsReport{RootSeed: m.RootSeed, Total: parallelRep.Total, Configs: AggregateSeeds(parallelRep.Results)}
	e1, err := s1.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s2.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e1, e2) {
		t.Fatal("aggregated stats JSON differs between parallelism 1 and NumCPU")
	}

	// The streaming path feeds the same aggregates.
	agg := NewSeedAggregator()
	for r, err := range Stream(context.Background(), m, runtime.NumCPU()) {
		if err != nil {
			t.Fatal(err)
		}
		agg.Add(r)
	}
	if !reflect.DeepEqual(agg.Aggregates(), s1.Configs) {
		t.Fatal("stream-fed aggregates differ from buffered aggregates")
	}
}

// TestMetricsRowsPopulated pins the per-row collection semantics: every
// scenario of a metrics-enabled sweep carries the applicable collectors,
// adversary-only metrics appear exactly on adversarial rows, and the
// instrumentation counters reach the collectors (positive message and
// byte costs on every networked run).
func TestMetricsRowsPopulated(t *testing.T) {
	rep, err := Run(metricsTestMatrix(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Metrics == nil {
			t.Fatalf("%s: metrics enabled but row has no metrics", r.Config.Key())
		}
		for _, name := range []string{MetricForkRate, MetricChainQuality, MetricGrowthRate,
			MetricFinalityDepth, MetricMsgs, MetricMsgBytes, MetricRoundsToAgreement} {
			if _, ok := r.Metrics[name]; !ok {
				t.Fatalf("%s: metric %s missing", r.Config.Key(), name)
			}
		}
		if r.Metrics[MetricMsgs] <= 0 || r.Metrics[MetricMsgBytes] <= 0 {
			t.Fatalf("%s: instrumentation counters empty: msgs=%v bytes=%v",
				r.Config.Key(), r.Metrics[MetricMsgs], r.Metrics[MetricMsgBytes])
		}
		_, hasShare := r.Metrics[MetricAdversaryShare]
		if adversarial := r.Config.Adversary == AdvSelfish; hasShare != adversarial {
			t.Fatalf("%s: adversary_share present=%v on adversary=%q", r.Config.Key(), hasShare, r.Config.Adversary)
		}
	}
	// Disabled collection stays zero-cost and zero-footprint.
	m := metricsTestMatrix()
	m.Metrics = nil
	plain, err := Run(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range plain.Results {
		if r.Metrics != nil {
			t.Fatal("metrics map allocated with collection disabled")
		}
	}
}

// TestSelfishMiningMetricsAboveProportional reproduces the Eyal–Sirer
// relationship through the stats pipeline: aggregated across seeds, the
// adversary's measured main-chain share exceeds its merit entitlement
// (γ=1 regime, above the threshold), and the measured chain quality
// degrades below the honest sweep's.
func TestSelfishMiningMetricsAboveProportional(t *testing.T) {
	const alpha = 0.34
	m := Matrix{
		Systems:      []string{"Bitcoin"},
		Adversaries:  []string{AdvNone, AdvSelfish},
		Alpha:        alpha,
		Seeds:        4,
		TargetBlocks: 60,
		RootSeed:     31,
		Metrics:      []string{MetricAdversaryShare, MetricChainQuality, MetricFairnessTVD},
	}
	rep, err := Run(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	aggs := AggregateSeeds(rep.Results)
	if len(aggs) != 2 {
		t.Fatalf("aggregated %d configs, want 2 (honest + selfish)", len(aggs))
	}
	honest, selfish := aggs[0], aggs[1]
	if honest.Adversary != AdvNone || selfish.Adversary != AdvSelfish {
		t.Fatalf("unexpected aggregate order: %q, %q", honest.Adversary, selfish.Adversary)
	}
	share, ok := selfish.Metrics[MetricAdversaryShare]
	if !ok || share.Count != m.Seeds {
		t.Fatalf("adversary_share aggregated over %d seeds, want %d", share.Count, m.Seeds)
	}
	if share.Mean <= alpha {
		t.Fatalf("mean adversary share %.3f ≤ merit %.3f — Eyal–Sirer profitability not reproduced", share.Mean, alpha)
	}
	if _, ok := honest.Metrics[MetricAdversaryShare]; ok {
		t.Fatal("honest aggregate carries adversary_share")
	}
	hq, sq := honest.Metrics[MetricChainQuality], selfish.Metrics[MetricChainQuality]
	if sq.Mean >= hq.Mean {
		t.Fatalf("selfish chain quality %.3f ≥ honest %.3f — withholding left no trace", sq.Mean, hq.Mean)
	}
}

// TestFruitChainMetricsCloserToFair reproduces the FruitChains claim
// with the metrics subsystem's distance statistics: under the same
// withholding adversary, the fruit-reward census stays closer to the
// merit entitlement than block authorship does (smaller TVD ⇒ higher
// chain quality).
func TestFruitChainMetricsCloserToFair(t *testing.T) {
	p := chains.Params{N: 6, TargetBlocks: 120, Seed: 31}
	const alpha = 0.34
	res, err := chains.Execute(chains.Scenario{
		Adversary: chains.FruitWithholding(alpha),
		Params:    p,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := res.Adversary

	merits := make([]float64, 6)
	merits[0] = alpha
	for i := 1; i < 6; i++ {
		merits[i] = (1 - alpha) / 5
	}
	blockTVD := fairness.FromCounts(stats.BlockShareByProc, merits).TVD
	rewardTVD := fairness.FromCounts(stats.FruitRewardByProc, merits).TVD
	if rewardTVD >= blockTVD {
		t.Fatalf("reward TVD %.3f ≥ block TVD %.3f — FruitChain fairness not reproduced", rewardTVD, blockTVD)
	}
	// In metric terms: reward chain quality beats block chain quality.
	if qReward, qBlock := 1-rewardTVD, 1-blockTVD; qReward <= qBlock {
		t.Fatalf("reward chain quality %.3f ≤ block chain quality %.3f", qReward, qBlock)
	}
}

// TestMetricRegistryCollisionPanics is the CI guard for metric-name
// collisions: a duplicate registration must panic at init time, not
// shadow an existing collector.
func TestMetricRegistryCollisionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate metric registration did not panic")
		}
	}()
	RegisterMetric(MetricSpec{
		Name:        MetricForkRate, // collides with the built-in
		Description: "impostor",
		Compute:     func(MetricRun) (float64, bool) { return 0, false },
	})
}

// TestMetricRunNormalizesDefaults pins the snapshot contract: the
// collectors see the run that actually happened — a scenario requesting
// N = 0 ran 8 processes, so a collector that normalizes by N must see 8,
// not 0, on honest and adversarial runs alike. An unregistered metric
// name fails the matrix expansion.
func TestMetricRunNormalizesDefaults(t *testing.T) {
	const name = "test_msgs_per_proc"
	// The registry is process-global with no unregistration; guard for
	// repeated runs (-count=2).
	if _, err := LookupMetric(name); err != nil {
		RegisterMetric(MetricSpec{
			Name:        name,
			Description: "test-only: delivered messages per process",
			Compute: func(r MetricRun) (float64, bool) {
				if r.N == 0 {
					return 0, false
				}
				return float64(r.Delivered) / float64(r.N), true
			},
		})
	}
	rep, err := Run(Matrix{
		Systems:      []string{"Bitcoin"},
		Adversaries:  []string{AdvNone, AdvSelfish},
		Ns:           []int{0},
		TargetBlocks: 15,
		RootSeed:     31,
		Metrics:      []string{name},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 2 {
		t.Fatalf("matrix ran %d scenarios, want an honest and a selfish one", rep.Total)
	}
	for _, r := range rep.Results {
		got, ok := r.Metrics[name]
		if !ok {
			t.Fatalf("%s: per-process collector inapplicable on a defaulted run — N not normalized", r.Config.Key())
		}
		if want := float64(r.Delivered) / 8; got != want {
			t.Fatalf("%s: snapshot N mismatch: metric %v, want %v", r.Config.Key(), got, want)
		}
	}
	if _, err := (Matrix{Metrics: []string{"nope"}}).Configs(); err == nil {
		t.Error("Matrix expanded despite an unregistered metric name")
	}
}

// TestRegistriesEnumeratesGenerically pins the generic enumeration
// surface `btadt list` renders: all seven registries appear in order,
// with every registration present — including the ones this PR adds (the
// topology dimension) — without any per-registry code in the caller.
func TestRegistriesEnumeratesGenerically(t *testing.T) {
	infos := Registries()
	wantKinds := []string{"system", "oracle", "selector", "link", "adversary", "topology", "metric"}
	if len(infos) != len(wantKinds) {
		t.Fatalf("enumerated %d registries, want %d", len(infos), len(wantKinds))
	}
	byKind := map[string]RegistryInfo{}
	for i, info := range infos {
		if info.Kind != wantKinds[i] {
			t.Fatalf("registry %d is %q, want %q", i, info.Kind, wantKinds[i])
		}
		if len(info.Entries) == 0 {
			t.Fatalf("registry %q enumerated empty", info.Kind)
		}
		for _, e := range info.Entries {
			if e.Name == "" || e.Description == "" {
				t.Fatalf("registry %q entry %+v incomplete", info.Kind, e)
			}
		}
		byKind[info.Kind] = info
	}
	names := func(kind string) map[string]bool {
		set := map[string]bool{}
		for _, e := range byKind[kind].Entries {
			set[e.Name] = true
		}
		return set
	}
	if !names("link")[LinkPsync] {
		t.Error("generic enumeration missed the psync link")
	}
	topoNames := names("topology")
	for _, want := range []string{TopoComplete, TopoGossip, TopoClustered} {
		if !topoNames[want] {
			t.Errorf("generic enumeration missed topology %q", want)
		}
	}
	metricNames := names("metric")
	for _, want := range MetricNames() {
		if !metricNames[want] {
			t.Errorf("generic enumeration missed metric %q", want)
		}
	}
}
