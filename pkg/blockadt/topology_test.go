package blockadt

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"blockadt/internal/chains"
)

// TestRegistryCrossProductNoThirdState is the composition property test
// of the unified executor: every registered (system, link, adversary,
// topology) tuple either executes deterministically or is excluded by
// admits during matrix expansion — there is no third state
// where expansion admits a tuple the engine then rejects (or vice
// versa). The registries are enumerated live, so user registrations from
// other tests are held to the same contract as the built-ins.
func TestRegistryCrossProductNoThirdState(t *testing.T) {
	if testing.Short() {
		t.Skip("cross product is slow")
	}
	for _, sys := range SystemNames() {
		for _, lspec := range Links() {
			for _, aspec := range Adversaries() {
				for _, tspec := range Topologies() {
					m := Matrix{
						Systems:      []string{sys},
						Links:        []string{lspec.Name},
						Adversaries:  []string{aspec.Name},
						Topologies:   []string{tspec.Name},
						TargetBlocks: 10,
						RootSeed:     7,
					}
					configs, err := m.Configs()
					if err != nil {
						t.Fatalf("%s×%s×%s×%s: expansion error: %v", sys, lspec.Name, aspec.Name, tspec.Name, err)
					}
					spec, err := LookupSystem(sys)
					if err != nil {
						t.Fatal(err)
					}
					supported := admits(spec.SimSystem, lspec, aspec, tspec)
					if supported != (len(configs) == 1) {
						t.Fatalf("%s×%s×%s×%s: admits says %v but expansion produced %d configs",
							sys, lspec.Name, aspec.Name, tspec.Name, supported, len(configs))
					}
					if !supported {
						// The excluded state: running the tuple directly must
						// fail with the same verdict expansion gave.
						cfg := Scenario{
							System: sys, Link: lspec.Name, Adversary: aspec.Name,
							N: 8, Blocks: 10,
						}
						if !tspec.Topology.IsDefault() {
							cfg.Topology = tspec.Name
						}
						if aspec.Plan != nil {
							cfg.Alpha = 0.34
						}
						if _, err := RunScenario(cfg); err == nil {
							t.Fatalf("%s×%s×%s×%s: pruned by expansion but RunScenario accepted it",
								sys, lspec.Name, aspec.Name, tspec.Name)
						}
						continue
					}
					// The executing state: deterministic, modulo wall clock.
					a, err := RunScenario(configs[0])
					if err != nil {
						t.Fatalf("%s×%s×%s×%s: admitted by expansion but failed to run: %v",
							sys, lspec.Name, aspec.Name, tspec.Name, err)
					}
					b, err := RunScenario(configs[0])
					if err != nil {
						t.Fatal(err)
					}
					a.WallNS, b.WallNS = 0, 0
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("%s×%s×%s×%s: nondeterministic:\n a: %+v\n b: %+v",
							sys, lspec.Name, aspec.Name, tspec.Name, a, b)
					}
					// Every entry point composes the tuple the same way: the
					// direct simulation entry points, given the scenario's
					// coordinates and derived seed, reproduce its run and
					// its verdict.
					if aspec.Plan != nil && !tspec.Topology.IsDefault() {
						continue // SimulateAdversary has no topology option
					}
					direct := directRun(t, configs[0], aspec.Plan != nil)
					if direct.Blocks != a.Blocks || direct.Forks != a.Forks || direct.Ticks != a.Ticks ||
						direct.Delivered != a.Delivered || direct.Dropped != a.Dropped {
						t.Fatalf("%s×%s×%s×%s: direct entry point diverged from RunScenario:\n direct: %+v\n sweep:  %+v",
							sys, lspec.Name, aspec.Name, tspec.Name, direct, a)
					}
					p := SimParams{N: configs[0].N, TargetBlocks: configs[0].Blocks, Seed: configs[0].Seed}
					if lvl := ClassifyRun(p, direct).Level.String(); lvl != a.Level {
						t.Fatalf("%s×%s×%s×%s: direct run classified %s, RunScenario %s",
							sys, lspec.Name, aspec.Name, tspec.Name, lvl, a.Level)
					}
				}
			}
		}
	}
}

// directRun replays a scenario through Simulate, or through
// SimulateAdversary when it is adversarial.
func directRun(t *testing.T, cfg Scenario, adversarial bool) SimResult {
	t.Helper()
	opts := []Option{WithLink(cfg.Link), WithN(cfg.N), WithBlocks(cfg.Blocks), WithSeed(cfg.Seed)}
	if adversarial {
		out, err := SimulateAdversary(cfg.System, cfg.Adversary, append(opts, WithAlpha(cfg.Alpha))...)
		if err != nil {
			t.Fatalf("%s: SimulateAdversary: %v", cfg.Key(), err)
		}
		return out.SimResult
	}
	res, err := Simulate(cfg.System, append(opts, WithTopology(cfg.Topology))...)
	if err != nil {
		t.Fatalf("%s: Simulate: %v", cfg.Key(), err)
	}
	return res
}

// TestTopologySweepDeterministicAcrossParallelism sweeps every topology
// by name over the PoW systems and asserts the canonical JSON is
// byte-identical at parallelism 1 and a real worker pool — the topology
// dimension inherits the engine's determinism contract.
func TestTopologySweepDeterministicAcrossParallelism(t *testing.T) {
	m := Matrix{
		Systems:      []string{"Bitcoin", "Ethereum"},
		Topologies:   []string{TopoComplete, TopoGossip, TopoClustered},
		Seeds:        2,
		TargetBlocks: 30,
		RootSeed:     42,
	}
	serial, err := Run(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	concurrent, err := Run(m, workers)
	if err != nil {
		t.Fatal(err)
	}
	js, err := serial.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	jc, err := concurrent.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, jc) {
		t.Fatalf("topology sweep differs between parallelism 1 and %d", workers)
	}
	// 2 systems × 3 topologies × 2 seeds, minus Ethereum×clustered2
	// (clustered supports heaviest-chain selection only).
	if serial.Total != 10 {
		t.Fatalf("swept %d configs, want 10", serial.Total)
	}
	for _, r := range serial.Results {
		if !r.Match {
			t.Errorf("%s measured %s, expected %s", r.Config.Key(), r.Level, r.Expected)
		}
	}
	// The seed aggregator keys on topology too: 5 matrix points (Bitcoin
	// ×3 topologies + Ethereum×2), never topologies folded together.
	aggs := AggregateSeeds(serial.Results)
	if len(aggs) != 5 {
		t.Fatalf("aggregated %d configs, want 5 (topology must be part of the config key)", len(aggs))
	}
	for _, a := range aggs {
		if a.Seeds != 2 {
			t.Errorf("%s@%s folded %d runs, want 2", a.System, a.Topology, a.Seeds)
		}
	}
}

// TestTopologyKeySchema pins the topology key schema: the default
// complete graph stays out of scenario keys and JSON entirely (every
// pre-existing key, derived seed and store entry is unchanged), while
// non-default topologies append |topo= and |tp= segments.
func TestTopologyKeySchema(t *testing.T) {
	m := Matrix{
		Systems:      []string{"Bitcoin"},
		Topologies:   []string{TopoComplete, TopoGossip, TopoClustered},
		TargetBlocks: 20,
		RootSeed:     42,
	}
	configs, err := m.Configs()
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 3 {
		t.Fatalf("expanded %d configs, want 3", len(configs))
	}
	complete, gossip, clustered := configs[0], configs[1], configs[2]
	if complete.Topology != "" || strings.Contains(complete.Key(), "topo=") {
		t.Fatalf("complete graph leaked into the key: %s", complete.Key())
	}
	legacy := Scenario{System: "Bitcoin", Link: LinkSync, Adversary: AdvNone, N: 8, Blocks: 20}
	if complete.Key() != legacy.Key() || complete.Seed != legacy.DeriveSeed(42) {
		t.Fatalf("complete-graph key or seed drifted: %s vs %s", complete.Key(), legacy.Key())
	}
	if want := legacy.Key() + "|topo=" + TopoGossip + "|tp=k=3"; gossip.Key() != want {
		t.Fatalf("gossip key = %s, want %s", gossip.Key(), want)
	}
	if !strings.Contains(clustered.Key(), "|topo="+TopoClustered+"|tp=clusters=2") {
		t.Fatalf("clustered key = %s", clustered.Key())
	}
	seen := map[uint64]bool{}
	for _, c := range configs {
		if seen[c.Seed] {
			t.Fatalf("topology dimension reused a derived seed: %s", c.Key())
		}
		seen[c.Seed] = true
	}
}

// TestSimulateWithTopology covers the options surface of the topology
// dimension: Simulate honors WithTopology deterministically; unsupported
// compositions, SimulateAdversary and New reject it with named errors.
func TestSimulateWithTopology(t *testing.T) {
	a, err := Simulate("Bitcoin", WithTopology(TopoGossip), WithBlocks(20), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate("Bitcoin", WithTopology(TopoGossip), WithBlocks(20), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.Blocks != b.Blocks || a.Ticks != b.Ticks || a.Delivered != b.Delivered {
		t.Fatal("WithTopology simulation nondeterministic")
	}
	if !strings.Contains(a.System, "@"+TopoGossip) {
		t.Fatalf("result system %q does not carry the topology tag", a.System)
	}

	if _, err := Simulate("Hyperledger", WithTopology(TopoGossip)); err == nil {
		t.Fatal("committee system accepted a gossip topology")
	}
	if _, err := Simulate("Bitcoin", WithTopology("torus")); !errors.Is(err, ErrUnknownName) {
		t.Fatalf("unknown topology: %v", err)
	}
	if _, err := SimulateAdversary("Bitcoin", AdvSelfish, WithTopology(TopoGossip)); err == nil ||
		!strings.Contains(err.Error(), "WithTopology") {
		t.Fatalf("SimulateAdversary accepted WithTopology: %v", err)
	}
	if _, err := New("Bitcoin", WithTopology(TopoGossip)); err == nil ||
		!strings.Contains(err.Error(), "WithTopology") {
		t.Fatalf("New accepted WithTopology: %v", err)
	}
}

// TestUnknownSystemSurfacesAsUnknownNameError pins the façade's error
// surface for systems: a name no registry knows is an *UnknownNameError
// from every entry point, while a known system that a custom link's
// plan cannot run (a plan-only link: chains.Composes keeps it to PoW
// systems) is refused by compose, naming the tuple, before anything
// simulates — never mislabelled as an unknown system.
func TestUnknownSystemSurfacesAsUnknownNameError(t *testing.T) {
	link := registerPlanOnlyLink()
	entries := map[string]error{}
	_, entries["Simulate"] = Simulate("NoSuchSystem")
	_, entries["SimulateAdversary"] = SimulateAdversary("NoSuchSystem", AdvSelfish)
	_, entries["RunScenario"] = RunScenario(Scenario{System: "NoSuchSystem", Link: LinkSync, N: 4, Blocks: 5})
	_, entries["Run"] = Run(Matrix{Systems: []string{"NoSuchSystem"}}, 1)
	for entry, err := range entries {
		var unknown *UnknownNameError
		if !errors.As(err, &unknown) || !errors.Is(err, ErrUnknownName) {
			t.Fatalf("%s: want *UnknownNameError, got %v", entry, err)
		}
		if unknown.Kind != "system" || unknown.Name != "NoSuchSystem" {
			t.Fatalf("%s: got Kind %q Name %q, want system/NoSuchSystem", entry, unknown.Kind, unknown.Name)
		}
		if len(unknown.Registered) == 0 {
			t.Fatalf("%s: Registered alternatives empty", entry)
		}
	}

	_, err := Simulate("Algorand", WithLink(link))
	if err == nil || errors.Is(err, ErrUnknownName) {
		t.Fatalf("Simulate(Algorand) over a PoW-only link: want a composition refusal, got %v", err)
	}
	if !strings.Contains(err.Error(), `"Algorand"`) || !strings.Contains(err.Error(), link) {
		t.Fatalf("refusal %q should name the system and the link", err)
	}
	if _, err := Simulate("Bitcoin", WithLink(link), WithBlocks(5)); err != nil {
		t.Fatalf("Simulate(Bitcoin): %v", err)
	}
}

// TestSweepReturnsLyingRegistrationError: a registration whose Supports
// claims a system the executor cannot run (a topology plan on a
// committee system) cannot get that tuple run. The sweep engine prunes
// it during expansion — at parallelism 1, where the pool runs inline,
// and in a worker pool, from Run and from Stream — and the scenario
// runner, handed the pruned tuple directly, returns the composition
// error instead of simulating or panicking.
func TestSweepReturnsLyingRegistrationError(t *testing.T) {
	topo := registerClaimsEverythingTopology()
	m := Matrix{Systems: []string{"Algorand", "Bitcoin"}, Topologies: []string{topo}, TargetBlocks: 5, RootSeed: 4}
	for _, parallelism := range []int{1, 2} {
		rep, err := Run(m, parallelism)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		if rep.Total != 1 || rep.Results[0].Config.System != "Bitcoin" {
			t.Fatalf("parallelism %d: ran %+v, want the one Bitcoin scenario", parallelism, rep.Results)
		}
	}
	var streamed []Result
	for r, err := range Stream(context.Background(), m, 2) {
		if err != nil {
			t.Fatalf("Stream: %v", err)
		}
		streamed = append(streamed, r)
	}
	if len(streamed) != 1 || streamed[0].Config.System != "Bitcoin" {
		t.Fatalf("Stream yielded %+v, want the one Bitcoin scenario", streamed)
	}

	pruned := streamed[0].Config
	pruned.System = "Algorand"
	_, err := RunScenario(pruned)
	if err == nil || errors.Is(err, ErrUnknownName) {
		t.Fatalf("RunScenario(Algorand over %s): want a composition refusal, got %v", topo, err)
	}
	if !strings.Contains(err.Error(), `"Algorand"`) || !strings.Contains(err.Error(), topo) {
		t.Fatalf("refusal %q should name the system and the topology", err)
	}
}

// claimsEverythingTopology is a hidden gossip topology whose Supports
// claims every system, although its plan runs only on the PoW driver.
const claimsEverythingTopology = "test-claims-everything"

// registerClaimsEverythingTopology registers claimsEverythingTopology
// once and returns its name.
func registerClaimsEverythingTopology() string {
	if _, err := LookupTopology(claimsEverythingTopology); err != nil {
		RegisterTopology(TopologySpec{
			Name:        claimsEverythingTopology,
			Description: "test-only gossip variant whose Supports claims every system",
			Params:      "k=2",
			Supports:    func(SimSystem) bool { return true },
			Topology:    chains.GossipTopology(2),
			Hidden:      true,
		})
	}
	return claimsEverythingTopology
}

// planOnlyLink is a hidden async link that registers nothing but its
// executor plan.
const planOnlyLink = "test-plan-only"

// registerPlanOnlyLink registers planOnlyLink once and returns its name.
func registerPlanOnlyLink() string {
	if _, err := LookupLink(planOnlyLink); err != nil {
		RegisterLink(LinkSpec{
			Name:        planOnlyLink,
			Description: "test-only async variant that registers only its plan",
			Link:        chains.AsyncLinks(8),
			Hidden:      true,
		})
	}
	return planOnlyLink
}
