package chains

import (
	"testing"

	"blockadt/internal/consistency"
)

// execScenario runs a scenario through the unified executor, failing the
// test on composition errors — the helper every in-package test uses.
func execScenario(t *testing.T, sc Scenario) Result {
	t.Helper()
	res, err := Execute(sc)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return res
}

// TestExecuteDefaultAxesMatchesSystemRun: a scenario with every axis at
// its zero value dispatches to the system's own Table 1 simulator — the
// results are identical to calling System.Run directly, which is what
// keeps the sweep baseline byte-stable across the refactor.
func TestExecuteDefaultAxesMatchesSystemRun(t *testing.T) {
	for _, sys := range []System{Bitcoin, Ethereum, Algorand, Hyperledger} {
		p := Params{N: 5, TargetBlocks: 20, Seed: 17}
		direct := sys.Run(p)
		via := execScenario(t, Scenario{System: sys, Params: p})
		if direct.Blocks != via.Blocks || direct.Ticks != via.Ticks ||
			direct.Delivered != via.Delivered || direct.Forks != via.Forks ||
			direct.System != via.System || direct.Refinement != via.Refinement {
			t.Fatalf("%s: Execute diverged from System.Run:\n direct: %+v\n via:    %+v", sys.Name, direct, via)
		}
		if len(direct.History.Events()) != len(via.History.Events()) {
			t.Fatalf("%s: history lengths differ: %d vs %d", sys.Name, len(direct.History.Events()), len(via.History.Events()))
		}
	}
}

// TestExecuteUnknownSystem: composing a committee system with a
// non-default link (or topology) is an error, not a panic — the message
// stays byte-identical to the panic it replaced so operators' grep
// habits survive.
func TestExecuteUnknownSystem(t *testing.T) {
	p := Params{N: 4, TargetBlocks: 10, Seed: 1}
	_, err := Execute(Scenario{System: Hyperledger, Links: AsyncLinks(8), Params: p})
	if err == nil {
		t.Fatal("committee system ran under async links")
	}
	if got, want := err.Error(), "chains: no async runner for system Hyperledger"; got != want {
		t.Fatalf("message = %q, want %q", got, want)
	}

	// A bare topology (sync links) reports the "sync" regime.
	_, err = Execute(Scenario{System: Algorand, Topology: GossipTopology(3), Params: p})
	if err == nil || err.Error() != "chains: no sync runner for system Algorand" {
		t.Fatalf("topology-only miss: %v", err)
	}

	// No system at all is its own error.
	if _, err := Execute(Scenario{Params: p}); err == nil {
		t.Fatal("scenario without a system must error")
	}
}

// TestComposesIsExecutesRule: Execute refuses exactly the tuples
// Composes refuses. The default axes run every system; a link or
// topology plan needs a PoW system; an adversary plan needs the default
// network.
func TestComposesIsExecutesRule(t *testing.T) {
	p := Params{N: 4, TargetBlocks: 8, Seed: 5}
	links := []LinkPlan{{}, AsyncLinks(8), PsyncLinks}
	topos := []TopologyPlan{{}, GossipTopology(3), ClusteredTopology(2, 4)}
	for _, sys := range []System{Bitcoin, Ethereum, Algorand, Hyperledger} {
		pow := sys.Name == "Bitcoin" || sys.Name == "Ethereum"
		for _, l := range links {
			for _, topo := range topos {
				for _, adv := range []AdversaryPlan{{}, SelfishWithholding(0.34)} {
					adversarial := adv.Run != nil
					network := l.isDefault() && topo.IsDefault()
					want := network || (pow && !adversarial)
					if got := Composes(sys, l, adversarial, topo); got != want {
						t.Fatalf("Composes(%s, %q, %v, %q) = %v, want %v", sys.Name, l.Regime, adversarial, topo.Name, got, want)
					}
					_, err := Execute(Scenario{System: sys, Links: l, Adversary: adv, Topology: topo, Params: p})
					if (err == nil) != want {
						t.Fatalf("%s/%q/%v@%q: Composes says %v, Execute returned %v", sys.Name, l.Regime, adversarial, topo.Name, want, err)
					}
				}
			}
		}
	}
}

// TestExecuteRejectsAdversaryNetworkCompositions: adversary plans own the
// run and assume synchronous complete-graph broadcast; composing them
// with a link or topology plan is refused up front rather than silently
// ignoring the network axis.
func TestExecuteRejectsAdversaryNetworkCompositions(t *testing.T) {
	p := Params{N: 6, TargetBlocks: 20, Seed: 3}
	for _, sc := range []Scenario{
		{Adversary: SelfishWithholding(0.34), Links: LossyLinks, Params: p},
		{Adversary: SelfishWithholding(0.34), Topology: GossipTopology(3), Params: p},
		{Adversary: FruitWithholding(0.34), Topology: ClusteredTopology(2, 4), Params: p},
	} {
		if _, err := Execute(sc); err == nil {
			t.Fatalf("adversary+network composition must error: %+v", sc)
		}
	}
	// The plain composition still runs.
	res := execScenario(t, Scenario{Adversary: SelfishWithholding(0.34), Params: p})
	if res.Adversary == nil {
		t.Fatal("adversary run carries no census")
	}
}

// TestGossipTopologyDeterministicEC: ring-gossip dissemination (degree
// k=3) runs deterministically and still converges — restricting direct
// sends to the neighbor set only reroutes updates, it loses none.
func TestGossipTopologyDeterministicEC(t *testing.T) {
	for _, sys := range []System{Bitcoin, Ethereum} {
		sc := Scenario{
			System:   sys,
			Topology: GossipTopology(3),
			Params:   Params{N: 8, TargetBlocks: 30, Seed: 42},
		}
		a := execScenario(t, sc)
		b := execScenario(t, sc)
		if a.Blocks != b.Blocks || a.Ticks != b.Ticks || a.Delivered != b.Delivered || a.Forks != b.Forks {
			t.Fatalf("%s@gossip3 nondeterministic:\n a: %+v\n b: %+v", sys.Name, a, b)
		}
		if want := sys.Name + "@gossip3"; a.System != want {
			t.Fatalf("result system = %q, want %q", a.System, want)
		}
		opts := Options(Params{N: 8}.withDefaults(), a.History)
		if lvl := a.Classify(opts).Level; lvl != consistency.LevelEC {
			t.Fatalf("%s@gossip3 classified %s, want EC", sys.Name, lvl)
		}
		// Gossip relays multiply deliveries relative to one-hop broadcast.
		if a.Delivered == 0 {
			t.Fatalf("%s@gossip3 delivered nothing", sys.Name)
		}
	}
}

// TestClusteredTopologyDeterministicEC: the clustered-latency wrap adds
// cross-cluster delay without dropping anything, so runs stay
// deterministic and eventually consistent, and compose with a
// non-default link plan.
func TestClusteredTopologyDeterministicEC(t *testing.T) {
	sc := Scenario{
		System:   Bitcoin,
		Topology: ClusteredTopology(2, 4),
		Params:   Params{N: 8, TargetBlocks: 30, Seed: 42},
	}
	a := execScenario(t, sc)
	b := execScenario(t, sc)
	if a.Blocks != b.Blocks || a.Ticks != b.Ticks || a.Delivered != b.Delivered || a.Forks != b.Forks {
		t.Fatalf("clustered2 nondeterministic:\n a: %+v\n b: %+v", a, b)
	}
	if want := "Bitcoin@clustered2"; a.System != want {
		t.Fatalf("result system = %q, want %q", a.System, want)
	}
	if a.Dropped != 0 {
		t.Fatalf("clustered latency dropped %d messages", a.Dropped)
	}
	opts := Options(Params{N: 8}.withDefaults(), a.History)
	if lvl := a.Classify(opts).Level; lvl != consistency.LevelEC {
		t.Fatalf("clustered2 classified %s, want EC", lvl)
	}

	// Cross-cluster delay is observable: the clustered run takes at least
	// as many ticks as the flat run on the same seed.
	flat := execScenario(t, Scenario{
		System: Bitcoin,
		Params: Params{N: 8, TargetBlocks: 30, Seed: 42},
	})
	if a.Ticks < flat.Ticks {
		t.Fatalf("clustered run finished faster than flat: %d < %d ticks", a.Ticks, flat.Ticks)
	}

	// Topology wraps compose with link plans: jitter inside clusters.
	composed := Scenario{
		System:   Ethereum,
		Links:    JitterLinks,
		Topology: ClusteredTopology(2, 4),
		Params:   Params{N: 8, TargetBlocks: 20, Seed: 7},
	}
	c := execScenario(t, composed)
	d := execScenario(t, composed)
	if c.Blocks != d.Blocks || c.Ticks != d.Ticks || c.Delivered != d.Delivered {
		t.Fatal("link×topology composition nondeterministic")
	}
	if want := "Ethereum/jitter@clustered2"; c.System != want {
		t.Fatalf("composed system = %q, want %q", c.System, want)
	}
}

// TestExecuteCrossProductDeterminism: every (PoW system × link plan ×
// topology plan) tuple the engine supports executes deterministically —
// the internal counterpart of the façade's registry cross-product test.
func TestExecuteCrossProductDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("cross product is slow")
	}
	links := map[string]LinkPlan{
		"sync": {}, "async": AsyncLinks(8), "psync": PsyncLinks,
		"lossy": LossyLinks, "partition": PartitionLinks, "jitter": JitterLinks,
	}
	topos := map[string]TopologyPlan{
		"complete": {}, "gossip3": GossipTopology(3), "clustered2": ClusteredTopology(2, 4),
	}
	for _, sys := range []System{Bitcoin, Ethereum} {
		for ln, link := range links {
			for tn, topo := range topos {
				sc := Scenario{
					System:   sys,
					Links:    link,
					Topology: topo,
					Params:   Params{N: 6, TargetBlocks: 15, Seed: 11},
				}
				a := execScenario(t, sc)
				b := execScenario(t, sc)
				if a.Blocks != b.Blocks || a.Ticks != b.Ticks || a.Delivered != b.Delivered ||
					a.Dropped != b.Dropped || a.Forks != b.Forks {
					t.Errorf("%s × %s × %s nondeterministic", sys.Name, ln, tn)
				}
			}
		}
	}
}
