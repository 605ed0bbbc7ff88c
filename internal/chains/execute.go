package chains

import (
	"fmt"

	"blockadt/internal/history"
	"blockadt/internal/netsim"
)

// This file is the unified scenario executor: one engine, four
// orthogonal strategy axes. A Scenario composes a System (mining and
// selection behavior), a LinkPlan (the channel model of Section 4.2),
// an AdversaryPlan (the fault model) and a TopologyPlan (the
// dissemination graph); Execute runs the composition. The nine bespoke
// Run* entry points this replaces paired those axes by hand — every new
// link or adversary needed another runner. Now a new axis value is a
// plan value, and the façade registries (pkg/blockadt) compose plans by
// name with no engine changes.

// LinkPlan is the channel-model axis: how to build the netsim link
// model from the defaulted run shape, plus the labels the regime stamps
// on results. A plan captures its own parameters (AsyncLinks(maxDelay),
// LossyPsyncLinks(rate, gstDeltas)); Build reads nothing but the core
// Params. The zero value is the synchronous default — the system's own
// simulator runs untouched.
type LinkPlan struct {
	// Regime tags the result's System field ("Bitcoin/async") and names
	// the regime in composition errors.
	Regime string
	// Refinement replaces the system's refinement string on results.
	Refinement string
	// Build constructs the link model. p carries the defaulted core
	// Params, so δ-scaled windows can be computed here.
	Build func(p Params) netsim.LinkModel
	// Heal reports the partition heal time the result should carry
	// (PartitionLinks); nil for regimes without one.
	Heal func(p Params) int64
}

// AdversaryPlan is the fault-model axis. The zero value runs every
// process honestly. A non-zero plan owns the whole run: adversarial
// strategies replace nodes, reshape merit tapes and post-process the
// final chains, so they drive the simulation themselves and attach
// their census to Result.Adversary. Adversary plans run over the
// synchronous complete-graph network (their analyses assume it);
// Composes refuses them with non-default links or topologies.
type AdversaryPlan struct {
	// Name labels the plan in composition errors.
	Name string
	// Run drives the adversarial run. The scenario's Params arrive
	// exactly as composed; the runner applies its own defaulting, like
	// the honest simulators do. The adversary's merit share is captured
	// by the plan (SelfishWithholding(alpha)).
	Run func(p Params) Result
}

// TopologyPlan is the dissemination-graph axis. The zero value is the
// complete graph. Graph reroutes block updates through Gossiper
// flooding restricted to the topology's neighbor sets; WrapLinks
// decorates the link model (latency matrices). Either or both may be
// set.
type TopologyPlan struct {
	// Name tags the result's System field ("Bitcoin@ring(k=3)").
	Name string
	// Graph, when set, switches replicas to gossip dissemination over
	// this topology.
	Graph netsim.Topology
	// WrapLinks, when set, decorates the link model after the link plan
	// built it. p carries the defaulted core Params.
	WrapLinks func(links netsim.LinkModel, p Params) netsim.LinkModel
}

// GossipTopology returns the degree-k ring-gossip plan: each process
// sends direct copies to its k ring successors and the flooding relays
// carry updates the rest of the way.
func GossipTopology(k int) TopologyPlan {
	return TopologyPlan{
		Name:  fmt.Sprintf("gossip%d", k),
		Graph: netsim.RingK{K: k},
	}
}

// ClusteredTopology returns the clustered-latency plan: processes are
// grouped into `clusters` equal-width id clusters and cross-cluster
// deliveries pay extraDeltas·δ on top of the link model.
func ClusteredTopology(clusters int, extraDeltas int64) TopologyPlan {
	if clusters < 1 {
		clusters = 1
	}
	return TopologyPlan{
		Name: fmt.Sprintf("clustered%d", clusters),
		WrapLinks: func(links netsim.LinkModel, p Params) netsim.LinkModel {
			size := (p.N + clusters - 1) / clusters
			return netsim.ClusterLatency{Inner: links, Size: size, Extra: extraDeltas * p.Delta}
		},
	}
}

// Scenario is one composed execution: a system and one value per
// strategy axis. Zero-valued axes select the defaults (synchronous
// links, honest processes, complete graph), in which case Execute runs
// the system's own Table 1 simulator unchanged.
type Scenario struct {
	System    System
	Links     LinkPlan
	Adversary AdversaryPlan
	Topology  TopologyPlan
	Params    Params
}

// isDefault reports whether the plan is the synchronous default, under
// which the system's own simulator runs untouched.
func (l LinkPlan) isDefault() bool { return l.Build == nil && l.Regime == "" }

// IsDefault reports whether the plan is the complete graph.
func (t TopologyPlan) IsDefault() bool { return t.Graph == nil && t.WrapLinks == nil }

// Composes reports whether Execute can run the system row under the
// given link plan, an adversary plan or none, and the given topology
// plan. It is the one statement of the executor's support rule:
//   - the default axes run every system's own simulator;
//   - a link or topology plan runs on the generic PoW driver, so it
//     needs a PoW row, whose mining loop is link-model agnostic (the
//     committee systems assume synchronous rounds and complete
//     dissemination);
//   - an adversary plan owns the run and assumes the synchronous
//     complete-graph network, so it needs the default link and topology.
//
// (GHOST's pre-GST oscillation, which used to exclude Ethereum from
// psync, is gone now that WeaklySynchronous honors the DLS "delivered by
// GST+δ" bound: no stale pre-GST straggler can arrive arbitrarily late
// and flip the subtree weights after stabilization.)
func Composes(system System, links LinkPlan, adversarial bool, topo TopologyPlan) bool {
	if links.isDefault() && topo.IsDefault() {
		return true
	}
	return system.PoW() && !adversarial
}

// Execute runs a composed scenario. Default-axes scenarios dispatch to
// the system's own simulator (byte-identical to calling System.Run);
// non-default links or topologies run the generic PoW driver; a
// non-default adversary owns the run entirely. The one error surface is
// composition: a tuple Composes refuses, or a scenario with no system.
func Execute(sc Scenario) (Result, error) {
	adversarial := sc.Adversary.Run != nil
	if sc.System.Selector == nil && !adversarial {
		return Result{}, fmt.Errorf("chains: scenario names no system")
	}
	if !Composes(sc.System, sc.Links, adversarial, sc.Topology) {
		if adversarial {
			return Result{}, fmt.Errorf("chains: adversary %q composes only with synchronous complete-graph networks", sc.Adversary.Name)
		}
		regime := sc.Links.Regime
		if regime == "" {
			regime = "sync"
		}
		return Result{}, fmt.Errorf("chains: no %s runner for system %s", regime, sc.System.Name)
	}
	if adversarial {
		return sc.Adversary.Run(sc.Params), nil
	}
	if sc.Links.isDefault() && sc.Topology.IsDefault() {
		// The Table 1 path: the system's own simulator, raw params (it
		// applies its own defaults).
		return sc.System.Run(sc.Params), nil
	}
	p := sc.Params.withDefaults()
	var links netsim.LinkModel
	if sc.Links.Build != nil {
		links = sc.Links.Build(p)
	}
	if links == nil {
		links = netsim.Synchronous{Delta: p.Delta}
	}
	if sc.Topology.WrapLinks != nil {
		links = sc.Topology.WrapLinks(links, p)
	}
	resName := sc.System.Name
	refinement := sc.System.Refinement
	if sc.Links.Regime != "" {
		resName += "/" + sc.Links.Regime
	}
	if sc.Links.Refinement != "" {
		refinement = sc.Links.Refinement
	}
	if sc.Topology.Name != "" {
		resName += "@" + sc.Topology.Name
	}
	res := runPoWTopo(resName, refinement, sc.System.Selector, links, sc.Topology.Graph, p)
	if sc.Links.Heal != nil {
		res.PartitionHeal = sc.Links.Heal(p)
	}
	return res, nil
}

// The link plans of the Section 4.2 channel models — the executable
// counterpart of the open issues the paper lists at the end of Section
// 4.2 ("TBC"): the solvability of Eventual Prefix under asynchrony and
// under block intervals shorter than the message-delay bound. The paper
// states the conjectures:
//
//	(ii)  Eventual Prefix is impossible in an asynchronous system;
//	(iii) Eventual Prefix is impossible if the interval between the
//	      generation of two successive blocks is less than the upper
//	      bound on the message delay.
//
// Executing a PoW system under AsyncLinks exhibits finite-run witnesses
// for both: with mining much faster than delivery, replicas build on
// stale tips and the recorded histories show divergence that outlives
// any grace window; with mining much slower than the (bounded) delay,
// the same protocol converges.
//
// Each plan captures its own parameters — the two parameterized regimes
// are constructors — and fixes every other knob at the constant the
// registered scenario links use, so each registered link is configured
// in one place. Each Build
// reproduces the netsim construction of the Run* runner it replaced, so
// results — and the rng streams behind them — are byte-identical.

// AsyncLinks is the asynchronous regime of the Section 4.2 open issues:
// common-case delay bound maxDelay (0 defaults inside netsim to 64) and
// no stragglers.
func AsyncLinks(maxDelay int64) LinkPlan {
	return LinkPlan{
		Regime:     "async",
		Refinement: "R(BT-ADT_EC, Θ_P) — async regime",
		Build: func(p Params) netsim.LinkModel {
			return netsim.Asynchronous{MaxDelay: maxDelay}
		},
	}
}

// LossyPsyncLinks combines per-message drops at rate (taken literally:
// 0 = reliable channels) with weak synchrony stabilizing at gstDeltas·δ
// — the Theorem 4.7 phase-boundary grid.
func LossyPsyncLinks(rate float64, gstDeltas int64) LinkPlan {
	return LinkPlan{
		Regime:     "lossy+psync",
		Refinement: "R(BT-ADT_EC, Θ_P) — lossy weakly-synchronous regime (Theorem 4.7 boundary)",
		Build: func(p Params) netsim.LinkModel {
			return netsim.LossyRate{
				Inner: netsim.WeaklySynchronous{GST: gstDeltas * p.Delta, Delta: p.Delta},
				P:     rate,
			}
		},
	}
}

var (
	// PsyncLinks is the weakly synchronous regime: asynchronous before
	// GST = 8δ (pre-GST delays bounded by netsim's 8δ default),
	// δ-bounded after, pre-GST sends delivered by GST+δ.
	PsyncLinks = LinkPlan{
		Regime:     "psync",
		Refinement: "R(BT-ADT_EC, Θ_P) — weakly synchronous (GST) regime",
		Build: func(p Params) netsim.LinkModel {
			return netsim.WeaklySynchronous{GST: 8 * p.Delta, Delta: p.Delta}
		},
	}
	// LossyLinks drops each message with probability DefaultLossRate,
	// never retransmitting — the Theorem 4.7 channels.
	LossyLinks = LinkPlan{
		Regime:     "lossy",
		Refinement: "R(BT-ADT_EC, Θ_P) — lossy channels (Theorem 4.7 regime)",
		Build: func(p Params) netsim.LinkModel {
			return netsim.LossyRate{Inner: netsim.Synchronous{Delta: p.Delta}, P: DefaultLossRate}
		},
	}
	// PartitionLinks bisects the network at N/2 over [8δ, 24δ),
	// deferring cross-cut deliveries until the cut heals.
	PartitionLinks = LinkPlan{
		Regime:     "partition",
		Refinement: "R(BT-ADT_EC, Θ_P) — healed partition regime",
		Build: func(p Params) netsim.LinkModel {
			return netsim.PartitionModel{
				Inner: netsim.Synchronous{Delta: p.Delta},
				Split: history.ProcID(p.N / 2),
				Start: 8 * p.Delta,
				Heal:  24 * p.Delta,
				Defer: true,
			}
		},
		Heal: func(p Params) int64 { return 24 * p.Delta },
	}
	// JitterLinks stretches 5% of deliveries by netsim's default 10×
	// over synchronous links.
	JitterLinks = LinkPlan{
		Regime:     "jitter",
		Refinement: "R(BT-ADT_EC, Θ_P) — heavy-tail jitter regime",
		Build: func(p Params) netsim.LinkModel {
			return netsim.Jitter{Inner: netsim.Synchronous{Delta: p.Delta}, TailProb: 0.05}
		},
	}
)

// SelfishWithholding replaces process 0 with an Eyal–Sirer selfish
// miner holding merit share alpha.
func SelfishWithholding(alpha float64) AdversaryPlan {
	return AdversaryPlan{Name: "selfish", Run: func(p Params) Result { return runSelfishMining(p, alpha) }}
}

// FruitWithholding runs the same withholding miner, holding merit share
// alpha, against honest FruitChain miners; its withheld blocks include
// only its own fruits.
func FruitWithholding(alpha float64) AdversaryPlan {
	return AdversaryPlan{Name: "fruit-selfish", Run: func(p Params) Result { return runFruitChainAttack(p, alpha) }}
}
