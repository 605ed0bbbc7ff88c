package blockadt

import (
	"blockadt/internal/chains"
)

// Topology names of the scenario matrix's dissemination dimension.
const (
	// TopoComplete broadcasts every update directly to every process —
	// the complete graph every Table 1 simulator assumes. It is the
	// default: scenarios running on it carry no topology key component,
	// so pre-existing scenario keys (and the run-store entries behind
	// them) are unchanged.
	TopoComplete = "complete"
	// TopoGossip floods updates over a degree-3 ring-gossip overlay:
	// each process sends direct copies to its 3 ring successors and
	// relays first-seen updates onward. PoW systems only.
	TopoGossip = "gossip3"
	// TopoClustered splits the processes into two equal id clusters and
	// charges cross-cluster deliveries 4δ extra latency on top of the
	// link model. PoW systems only.
	TopoClustered = "clustered2"
)

// The three dissemination topologies self-register. "complete" is the
// default (the zero Topology: the system's own broadcast runs
// untouched); the non-default topologies hold the executor's gossip and
// clustered plans. Both run on the generic PoW driver and model honest
// dissemination, so chains.Composes admits them for the PoW systems
// under any link model but under no adversary (the adversarial
// strategies assume direct broadcast).
func init() {
	RegisterTopology(TopologySpec{
		Name:        TopoComplete,
		Description: "complete graph: every update broadcast directly to every process (the Table 1 setting)",
	})
	RegisterTopology(TopologySpec{
		Name:        TopoGossip,
		Description: "degree-3 ring-gossip overlay: direct copies to 3 ring successors, flooding relays the rest",
		Params:      "k=3",
		Topology:    chains.GossipTopology(3),
		// Flooding still delivers every update to every process (relays
		// ride the same links), so the link model's prediction stands.
	})
	RegisterTopology(TopologySpec{
		Name:        TopoClustered,
		Description: "two latency clusters: cross-cluster deliveries pay 4δ extra on top of the link model",
		Params:      "clusters=2,x=4δ",
		// Heaviest-chain rows only (Bitcoin's rule): heaviest-chain
		// selection absorbs the cluster divergence quickly, so the EC
		// prediction holds across seeds. GHOST keeps both clusters' subtrees competitive for long
		// stretches and the finite-run checker (rightly) flags the
		// divergence on a seed-dependent fraction of runs, which would
		// turn the sweep's expected-level verdict into a coin flip.
		Supports: heaviestChain,
		Topology: chains.ClusteredTopology(2, 4),
		// Extra latency delays convergence without destroying it: the
		// link model's prediction stands.
	})
}
