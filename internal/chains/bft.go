package chains

import (
	"blockadt/internal/blocktree"
	"blockadt/internal/consistency"
	"blockadt/internal/netsim"
	"blockadt/internal/oracle"
	"blockadt/internal/prng"
)

// The consensus-based systems of Table 1 (ByzCoin, Algorand, PeerCensus,
// Red Belly, Hyperledger Fabric) all refine BT-ADT_SC with the frugal
// oracle Θ_F,k=1: their agreement machinery commits a single block per
// predecessor. This file provides a round-based engine that realizes that
// commit as an atomic consumeToken on a k=1 oracle — the paper's own
// abstraction of a Byzantine-tolerant commit (Sections 5.3–5.7) — followed
// by a reliable broadcast of the decided block. What varies per system is
// the proposer-selection discipline:
//
//   - ByzCoin / PeerCensus: a proof-of-work race (probabilistic tape
//     grants); concurrent winners are ordered by a digest-derived jitter,
//     modelling ByzCoin's smallest-least-significant-bits rule;
//   - Algorand: cryptographic sortition — per-round committee membership is
//     a Bernoulli draw and the highest sortition priority proposes first,
//     modelling BA*'s highest-priority-wins guarantee;
//   - Red Belly: the consortium's M writers all propose, the Byzantine
//     consensus (the consume) decides one;
//   - Hyperledger Fabric: a round-robin leader among the M writers is the
//     only proposer (the ordering service).
//
// Rounds are paced at 3δ so every correct replica knows the previous
// decision before proposing, matching the semi/eventual-synchrony
// assumptions those systems make.
type roundPlan struct {
	// participate reports whether process i proposes in round r, and the
	// intra-round scheduling priority (smaller proposes earlier).
	participate func(r int, i int) (bool, int64)
	// tokenProb is the per-attempt grant probability of each tape.
	tokenProb float64
}

type bftNode struct {
	rep   *netsim.Replica
	orc   *oracle.Oracle
	merit int
	plan  roundPlan
	round int
	count int
	net   *network
}

const (
	roundTimer   = "round"
	proposeTimer = "propose"
)

// OnTimer implements netsim.Handler.
func (n *bftNode) OnTimer(s *netsim.Sim, tag string) {
	switch tag {
	case roundTimer:
		r := n.round
		n.round++
		if ok, prio := n.plan.participate(r, n.merit); ok && !n.net.done {
			s.TimerAt(n.rep.ID(), s.Now()+1+prio, proposeTimer)
		}
		if !n.net.done {
			s.TimerAt(n.rep.ID(), s.Now()+3*n.net.p.Delta, roundTimer)
		}
	case proposeTimer:
		n.propose(s)
	case readTimer:
		n.net.read(s, n.rep)
	}
}

// OnMessage implements netsim.Handler.
func (n *bftNode) OnMessage(s *netsim.Sim, m netsim.Message) {
	n.rep.OnMessage(s, m)
}

// propose attempts to extend the local tip: getToken (the validation race),
// then consumeToken on the frugal k=1 oracle (the Byzantine-tolerant
// commit). Only the first consume per predecessor succeeds; losers record a
// failed append, which the purged histories of Section 3.4 discard.
func (n *bftNode) propose(s *netsim.Sim) {
	if n.orc.PopBottom(n.merit) {
		return
	}
	parent := n.rep.SelectedTip()
	candidate := blockName(parent.Height+1, 'p', n.rep.ID(), n.count)
	if b, ok := appendBlock(s, n.orc, n.rep.ID(), n.merit, &n.count, parent.ID, candidate); ok {
		n.rep.CreateAndBroadcast(s, parent.ID, b)
	}
}

// runBFT drives a round-based k=1 network.
func runBFT(name, refinement string, sel blocktree.Selector, plan roundPlan, p Params) Result {
	p = p.withDefaults()
	net := newNetwork(netsim.Synchronous{Delta: p.Delta}, p)
	orc := oracle.NewFrugal(1, p.Seed, equalMerits(p.N, plan.tokenProb)...)
	for i := 0; i < p.N; i++ {
		rep := net.replica(sel)
		id := rep.ID()
		net.sim.Register(id, &bftNode{rep: rep, orc: orc, merit: i, plan: plan, net: net})
		net.sim.TimerAt(id, 1, roundTimer)
		net.sim.TimerAt(id, 2+int64(i)%p.ReadEvery, readTimer)
	}
	t := net.mine(3 * p.Delta)
	net.sim.Run(t + 3*p.Delta + 16*p.Delta)
	res := net.result(name, refinement, orc.Name(), sel, 1)
	net.release()
	return res
}

// powRace is the ByzCoin/PeerCensus proposer discipline: everyone races;
// intra-round order follows a digest-derived jitter. The PoW race needs a
// realistic per-round hit rate, so the tape probability is scaled so that
// a round finds a winner more often than not.
func powRace(p Params) roundPlan {
	return roundPlan{
		tokenProb: min(p.TokenProb*8, 0.9),
		participate: func(r, i int) (bool, int64) {
			return true, int64(prng.Mix(p.Seed, 0xD16E57, uint64(r), uint64(i)) % 8)
		},
	}
}

// writerCount is the consortium's number of writers |M|: Params.Writers
// when it names a proper subset of the N processes, N/2+ otherwise.
func writerCount(p Params) int {
	if p.Writers <= 0 || p.Writers > p.N {
		return (p.N + 1) / 2
	}
	return p.Writers
}

var (
	// Algorand is Section 5.3: cryptographic sortition selects a
	// committee weighted by stake; the highest-priority member proposes
	// and the BA* Byzantine agreement commits that block — a
	// probabilistic implementation of a strongly consistent BlockTree
	// with a frugal oracle, k = 1 (SC with high probability; the fork
	// probability is below 10⁻⁷ and is not injected here).
	Algorand = System{
		Name:       "Algorand",
		Refinement: "R(BT-ADT_SC, Θ_F,k=1) w.h.p.",
		Expected:   consistency.LevelSC,
		Selector:   blocktree.SingleChain{},
		Rounds: func(p Params) roundPlan {
			const committeeProb = 0.5
			return roundPlan{
				tokenProb: 1,
				participate: func(r, i int) (bool, int64) {
					draw := prng.Mix(p.Seed, 0xA160, uint64(r), uint64(i))
					if !prng.Bernoulli(draw, committeeProb) {
						return false, 0
					}
					// Sortition priority: smaller value proposes
					// earlier, so the consume picks the
					// highest-priority member.
					prio := int64(prng.Mix(p.Seed, 0xB42A, uint64(r), uint64(i)) % 16)
					return true, prio
				},
			}
		},
	}
	// ByzCoin is Section 5.4: keyblock creation by proof-of-work,
	// commitment by a PBFT variant that appends a single keyblock per
	// predecessor — a strongly consistent BlockTree composed with a
	// frugal oracle, k = 1.
	ByzCoin = System{
		Name:       "ByzCoin",
		Refinement: "R(BT-ADT_SC, Θ_F,k=1)",
		Expected:   consistency.LevelSC,
		Selector:   blocktree.SingleChain{},
		Rounds:     powRace,
	}
	// PeerCensus is Section 5.5: proof-of-work identity plus a dynamic
	// Byzantine-tolerant consensus committing a single keyblock among the
	// concurrent ones — again R(BT-ADT_SC, Θ_F,k=1) under the
	// secure-state assumption (adversarial power below 1/3).
	PeerCensus = System{
		Name:       "PeerCensus",
		Refinement: "R(BT-ADT_SC, Θ_F,k=1)",
		Expected:   consistency.LevelSC,
		Selector:   blocktree.SingleChain{},
		Rounds:     powRace,
	}
	// RedBelly is Section 5.6: a consortium blockchain where only the M
	// predefined writers append; every writer can obtain a token and the
	// Byzantine consensus run by all processes decides a unique block, so
	// the BlockTree contains a unique chain: R(BT-ADT_SC, Θ_F,k=1) with
	// the trivial projection as selection function.
	RedBelly = System{
		Name:       "RedBelly",
		Refinement: "R(BT-ADT_SC, Θ_F,k=1)",
		Expected:   consistency.LevelSC,
		Selector:   blocktree.SingleChain{},
		Rounds: func(p Params) roundPlan {
			writers := writerCount(p)
			return roundPlan{
				tokenProb: 1,
				participate: func(r, i int) (bool, int64) {
					if i >= writers {
						return false, 0
					}
					return true, int64(prng.Mix(p.Seed, 0x2EDB, uint64(r), uint64(i)) % 8)
				},
			}
		},
	}
	// Hyperledger is Section 5.7 (Hyperledger Fabric): a permissioned
	// system where a leader among the M writers gathers transactions into
	// the next block and the ordering service delivers it to everyone —
	// by construction a unique token is consumed per height:
	// R(BT-ADT_SC, Θ_F,k=1).
	Hyperledger = System{
		Name:       "Hyperledger",
		Refinement: "R(BT-ADT_SC, Θ_F,k=1)",
		Expected:   consistency.LevelSC,
		Selector:   blocktree.SingleChain{},
		Rounds: func(p Params) roundPlan {
			writers := writerCount(p)
			return roundPlan{
				tokenProb: 1,
				participate: func(r, i int) (bool, int64) {
					return i == r%writers, 0
				},
			}
		},
	}
)
