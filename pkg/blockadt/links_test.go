package blockadt

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"blockadt/internal/chains"
)

// adversityMatrix spans the full enlarged link dimension over every
// registered system (the non-sync links prune to the PoW systems).
// TargetBlocks stays at the baseline's 30: shorter runs occasionally
// measure SC on an expected-EC config (no observable reorg happened to
// occur), which is a pre-existing property of short sweeps, not of the
// link layer.
func adversityMatrix(seeds int) Matrix {
	return Matrix{
		Systems:      []string{"Bitcoin", "Ethereum", "Hyperledger"},
		Links:        []string{LinkSync, LinkAsync, LinkPsync, LinkLossy, LinkPartition, LinkJitter},
		Seeds:        seeds,
		TargetBlocks: 30,
		RootSeed:     42,
		Metrics:      MetricNames(),
	}
}

// TestEnlargedMatrixByteIdenticalAcrossParallelism is the acceptance
// criterion for the link layer: the 6-link matrix sweeps byte-identically
// at parallelism 1 and NumCPU, metrics included.
func TestEnlargedMatrixByteIdenticalAcrossParallelism(t *testing.T) {
	m := adversityMatrix(2)
	serial, err := Run(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallelRep, err := Run(m, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := serial.EncodeJSON()
	j2, _ := parallelRep.EncodeJSON()
	if !bytes.Equal(j1, j2) {
		t.Fatal("enlarged-matrix sweep JSON differs between parallelism 1 and NumCPU")
	}
	// 3 systems on sync + 2 PoW systems on each of the 5 adversity links,
	// 2 seeds each.
	if want := (3 + 2*5) * 2; serial.Total != want {
		t.Fatalf("matrix expanded to %d scenarios, want %d", serial.Total, want)
	}
	if serial.Matched != serial.Total {
		t.Fatalf("%d/%d scenarios missed their expected level", serial.Total-serial.Matched, serial.Total)
	}
}

// TestRegisteredLinksDeterministic is the registry-wide property test:
// for every registered link model, running the same fully resolved
// scenario twice yields identical results — the delivery schedule, and
// everything derived from it, is a pure function of (topology, seed).
func TestRegisteredLinksDeterministic(t *testing.T) {
	for _, spec := range Links() {
		system := chains.Bitcoin
		if !admits(system, spec, AdversarySpec{}, TopologySpec{}) {
			t.Fatalf("link %q does not support %s", spec.Name, system.Name)
		}
		cfg := Scenario{
			System: system.Name, Link: spec.Name, Adversary: AdvNone,
			LinkParams: spec.Params, N: 8, Blocks: 15, SeedIndex: 0,
		}
		cfg.Seed = cfg.DeriveSeed(42)
		a, err := RunScenario(cfg)
		if err != nil {
			t.Fatalf("link %q: %v", spec.Name, err)
		}
		b, err := RunScenario(cfg)
		if err != nil {
			t.Fatalf("link %q: %v", spec.Name, err)
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if !bytes.Equal(ja, jb) {
			t.Errorf("link %q: identical scenario produced different results", spec.Name)
		}
	}
}

// TestLossyLinkWitnessesTheorem47 pins the façade-level shape of the
// necessity result: every lossy scenario drops messages, breaks LRC and
// falls short of its Table 1 level, so it is held to none (Theorem 4.7:
// Eventual Prefix unimplementable under loss).
func TestLossyLinkWitnessesTheorem47(t *testing.T) {
	m := Matrix{Links: []string{LinkLossy}, Seeds: 2, TargetBlocks: 20, RootSeed: 42}
	rep, err := Run(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 4 { // Bitcoin, Ethereum × 2 seeds
		t.Fatalf("lossy matrix expanded to %d scenarios, want 4", rep.Total)
	}
	for _, r := range rep.Results {
		if r.Dropped == 0 {
			t.Errorf("%s: lossy run dropped nothing", r.Config.Key())
		}
		if r.Expected != "none" || r.Level != "none" || !r.Match {
			t.Errorf("%s: expected=%s level=%s match=%v — want the Theorem 4.7 violation", r.Config.Key(), r.Expected, r.Level, r.Match)
		}
	}
}

// TestMatchFollowsPremise replays every lossy scenario over the complete
// graph and over gossip, whose relays re-deliver what a drop lost, and
// checks the engine's expected level against the rule stated from the
// replayed run: the system's Table 1 level, unless the run measured
// weaker and broke LRC or Update Agreement, which the theory needs for
// any guarantee (Theorems 4.6, 4.7). Every row must then match.
func TestMatchFollowsPremise(t *testing.T) {
	m := Matrix{Links: []string{LinkLossy}, Topologies: []string{TopoComplete, TopoGossip}, Seeds: 3, TargetBlocks: 30, RootSeed: 42}
	rep, err := Run(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 12 { // Bitcoin, Ethereum × 2 topologies × 3 seeds
		t.Fatalf("matrix expanded to %d scenarios, want 12", rep.Total)
	}
	for _, r := range rep.Results {
		cfg := r.Config
		spec, err := LookupSystem(cfg.System)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(cfg.System, WithLink(cfg.Link), WithTopology(cfg.Topology), WithN(cfg.N), WithBlocks(cfg.Blocks), WithSeed(cfg.Seed))
		if err != nil {
			t.Fatal(err)
		}
		p := SimParams{N: cfg.N, TargetBlocks: cfg.Blocks, Seed: cfg.Seed}
		opts := chains.Options(p, res.History)
		level := ClassifyRun(p, res).Level
		premise := LRC(res.History, opts).Satisfied && UpdateAgreement(res.History, opts).Satisfied
		want := spec.Expected
		if !level.AtLeast(spec.Expected) && !premise {
			want = LevelNone
		}
		if r.Level != level.String() || r.Expected != want.String() || !r.Match {
			t.Errorf("%s: expected=%s level=%s match=%v; the replay measured %s with LRC∧UA=%v, so want expected=%s and a match",
				cfg.Key(), r.Expected, r.Level, r.Match, level, premise, want)
		}
	}
}

// TestPartitionLinkMetrics: partition scenarios expose the heal-lag and
// dropped-message collectors; sync scenarios stay free of the
// partition-only metric.
func TestPartitionLinkMetrics(t *testing.T) {
	m := Matrix{
		Systems: []string{"Bitcoin"},
		Links:   []string{LinkSync, LinkPartition},
		Seeds:   1, TargetBlocks: 20, RootSeed: 42,
		Metrics: []string{MetricMsgsDropped, MetricPartitionHealLag},
	}
	rep, err := Run(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if _, ok := r.Metrics[MetricMsgsDropped]; !ok {
			t.Errorf("%s: msgs_dropped missing", r.Config.Key())
		}
		lag, ok := r.Metrics[MetricPartitionHealLag]
		switch r.Config.Link {
		case LinkPartition:
			if !ok {
				t.Errorf("%s: partition_heal_lag missing on a partition run", r.Config.Key())
			}
			if lag < 0 {
				t.Errorf("%s: negative heal lag %v", r.Config.Key(), lag)
			}
			if r.Metrics[MetricMsgsDropped] != 0 {
				t.Errorf("%s: deferred partition dropped %v messages", r.Config.Key(), r.Metrics[MetricMsgsDropped])
			}
		default:
			if ok {
				t.Errorf("%s: partition_heal_lag reported on a %s run", r.Config.Key(), r.Config.Link)
			}
		}
	}
}

// TestLinkParamsParticipateInScenarioIdentity: a link's parameter string
// is part of the scenario key — and therefore of the derived seed and
// the run-store cache key — while parameterless scenarios keep their
// historical identities (pinned against the PR-4 baseline's derived
// seed).
func TestLinkParamsParticipateInScenarioIdentity(t *testing.T) {
	sync := Scenario{System: "Bitcoin", Link: LinkSync, Adversary: AdvNone, N: 8, Blocks: 30, SeedIndex: 0}
	if sync.Key() != "Bitcoin|sync|none|a=0.0000|n=8|b=30|s=0" {
		t.Fatalf("parameterless key changed: %s", sync.Key())
	}
	if got := sync.DeriveSeed(42); got != 8502013113552945509 {
		t.Fatalf("historical derived seed changed: %d", got)
	}
	lossy := Scenario{System: "Bitcoin", Link: LinkLossy, Adversary: AdvNone, LinkParams: "p=0.10", N: 8, Blocks: 30, SeedIndex: 0}
	retuned := lossy
	retuned.LinkParams = "p=0.25"
	if lossy.Key() == retuned.Key() {
		t.Fatal("retuned link parameters did not change the scenario key")
	}
	if lossy.DeriveSeed(42) == retuned.DeriveSeed(42) {
		t.Fatal("retuned link parameters did not change the derived seed")
	}
	// Matrix expansion stamps the registered spec's params.
	configs, err := Matrix{Systems: []string{"Bitcoin"}, Links: []string{LinkLossy}, RootSeed: 42}.Configs()
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 1 || configs[0].LinkParams != "p=0.10" {
		t.Fatalf("expansion did not stamp link params: %+v", configs)
	}
}

// TestAdversityLinksPruneToPoWSystems: the committee systems never
// expand under the netsim-backed links, and both PoW systems always do.
func TestAdversityLinksPruneToPoWSystems(t *testing.T) {
	for _, link := range []string{LinkAsync, LinkPsync, LinkLossy, LinkPartition, LinkJitter} {
		configs, err := Matrix{Links: []string{link}, RootSeed: 1}.Configs()
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for _, c := range configs {
			got[c.System] = true
		}
		if len(got) != 2 || !got["Bitcoin"] || !got["Ethereum"] {
			t.Errorf("link %q expanded to %v, want exactly the PoW systems", link, got)
		}
	}
}
