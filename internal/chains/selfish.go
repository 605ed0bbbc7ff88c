package chains

import (
	"fmt"

	"blockadt/internal/blocktree"
	"blockadt/internal/history"
	"blockadt/internal/netsim"
	"blockadt/internal/oracle"
)

// This file implements the selfish-mining strategy (Eyal & Sirer) inside
// the framework: an adversarial miner that withholds its proof-of-work
// blocks and publishes them reactively to orphan honest work. The paper
// leaves fairness as future work but notes the merit parameter supports
// defining it (and cites FruitChain, whose purpose is exactly to defeat
// this strategy); the experiment shows the BT-ADT machinery *measuring*
// the attack: the realized block distribution of the selfish run deviates
// from the merit entitlement (chain quality loss), while the criteria
// checkers still classify the run as eventually consistent — fairness and
// consistency are orthogonal, which is why the paper needs a separate
// fairness notion.
//
// Strategy state machine (lead = private tip height − public tip height):
//
//	adversary finds a block   → extend the private branch, withhold;
//	honest block arrives:
//	  lead was 0  → adopt the honest chain (discard private work);
//	  lead was 1  → publish the private branch (race, here won by the
//	                adversary's broadcast reaching everyone within δ);
//	  lead was 2  → publish everything (overrides the honest block);
//	  lead  > 2   → publish enough blocks to stay one ahead.
type selfishMiner struct {
	rep      *netsim.Replica // public view (honest chain as received)
	private  *blocktree.Tree // public view + withheld private branch
	orc      *oracle.Oracle
	merit    int
	counter  int
	withheld []blocktree.Block // private blocks not yet published
	net      *network
}

func (m *selfishMiner) publicTip() blocktree.Block {
	return blocktree.SelectTip(blocktree.HeaviestChain{}, m.rep.Tree())
}

func (m *selfishMiner) privateTip() blocktree.Block {
	return blocktree.SelectTip(blocktree.HeaviestChain{}, m.private)
}

// OnTimer implements netsim.Handler.
func (m *selfishMiner) OnTimer(s *netsim.Sim, tag string) {
	if tag != mineTimer || m.net.done {
		return
	}
	defer s.TimerAt(m.rep.ID(), s.Now()+m.net.p.MineInterval, mineTimer)

	if m.orc.PopBottom(m.merit) {
		return
	}
	parent := m.privateTip()
	// Adversary blocks carry a "z" marker that wins the deterministic
	// lexicographic tie-break of the selectors: this models γ = 1 of the
	// Eyal–Sirer analysis (every honest miner that sees both blocks of a
	// race mines on the adversary's), the strategy's best case.
	candidate := blockName(parent.Height+1, 'z', m.rep.ID(), m.counter)
	b, ok := appendBlock(s, m.orc, m.rep.ID(), m.merit, &m.counter, parent.ID, candidate)
	if !ok || m.private.Insert(b) != nil {
		return
	}
	m.withheld = append(m.withheld, b)
}

// OnMessage implements netsim.Handler: honest blocks update the public
// view and trigger the reactive publication policy.
func (m *selfishMiner) OnMessage(s *netsim.Sim, msg netsim.Message) {
	if msg.Kind != netsim.UpdateMsg {
		return
	}
	b, ok := msg.Payload.(*blocktree.Block)
	if !ok {
		return
	}
	if msg.Origin == m.rep.ID() {
		m.rep.OnMessage(s, msg) // own published block echoing back
		return
	}
	leadBefore := m.privateTip().Height - m.publicTip().Height
	m.rep.OnMessage(s, msg)
	if m.private.Has(b.Parent) && !m.private.Has(b.ID) {
		m.private.Insert(*b)
	}

	switch {
	case leadBefore <= 0:
		// Nothing withheld worth defending: adopt the honest chain.
		m.withheld = nil
		m.resyncPrivate()
	case leadBefore == 1, leadBefore == 2:
		m.publish(s, len(m.withheld)) // race / override
	default:
		m.publish(s, 1) // stay ahead, reveal one
	}
}

// resyncPrivate rebuilds the private tree from the public view (discarding
// abandoned withheld work). The clone matters: Replica.Tree() exposes the
// live tree, and the private branch must not leak into the public view.
func (m *selfishMiner) resyncPrivate() {
	m.private = m.rep.Tree().Clone()
}

// publish releases the first n withheld blocks through the regular update
// broadcast.
func (m *selfishMiner) publish(s *netsim.Sim, n int) {
	if n > len(m.withheld) {
		n = len(m.withheld)
	}
	for _, b := range m.withheld[:n] {
		m.rep.CreateAndBroadcast(s, b.Parent, b)
	}
	m.withheld = m.withheld[n:]
}

// withholdingParams is the one run shape of both withholding drivers:
// the selfish process-count normalization (NormalizeSelfishN), the
// Params defaults, and a merit split of the aggregate attempt rate
// N·TokenProb in which the adversary at process 0 holds fraction alpha
// and the N-1 honest miners share the rest equally.
func withholdingParams(p Params, alpha float64) Params {
	p.N = NormalizeSelfishN(p.N)
	p = p.withDefaults()
	total := p.TokenProb * float64(p.N)
	p.Merits = make([]float64, p.N)
	p.Merits[0] = total * alpha
	for i := 1; i < p.N; i++ {
		p.Merits[i] = total * (1 - alpha) / float64(p.N-1)
	}
	return p
}

// runSelfishMining is the SelfishWithholding plan's driver: N-1 honest
// miners against one selfish miner (process 0) holding fraction alpha
// of the total mining power. The census lands on Result.Adversary.
func runSelfishMining(p Params, alpha float64) Result {
	p = withholdingParams(p, alpha)
	net := newNetwork(netsim.Synchronous{Delta: p.Delta}, p)
	orc := newProdigal(p)

	// The adversary reads nothing: reads come from honest observers.
	adv := &selfishMiner{rep: net.replica(blocktree.HeaviestChain{}), orc: orc, net: net}
	adv.private = adv.rep.Tree().Clone()
	net.sim.Register(0, adv)
	net.sim.TimerAt(0, 1, mineTimer)
	for i := 1; i < p.N; i++ {
		rep := net.replica(blocktree.HeaviestChain{})
		id := rep.ID()
		net.sim.Register(id, &powNode{rep: rep, orc: orc, merit: i, net: net})
		net.sim.TimerAt(id, 1+int64(i)%p.MineInterval, mineTimer)
		net.sim.TimerAt(id, 2+int64(i)%p.ReadEvery, readTimer)
	}
	t := net.mine(64)
	// Final reveal: the adversary publishes its remaining lead so the
	// run ends in a quiescent state.
	adv.publish(net.sim, len(adv.withheld))
	net.sim.Run(t + 64 + 16*p.Delta)
	res := net.result(fmt.Sprintf("Bitcoin+selfish(α=%.2f)", alpha), "R(BT-ADT_EC, Θ_P) under adversarial withholding",
		orc.Name(), blocktree.HeaviestChain{}, oracle.Unbounded)

	res.Adversary, _ = withholdingCensus(net, res, alpha)
	net.release()
	return res
}

// withholdingCensus is the block census both withholding drivers take
// when their run ends: the main chain at the honest process 1 under
// HeaviestChain and its authorship per process, mined blocks from the
// history's successful appends (process 0 is the adversary), the
// realized main-chain shares and the orphaned blocks. It returns the
// main chain too, for the fruit driver's reward census.
func withholdingCensus(net *network, res Result, alpha float64) (*AdversaryStats, blocktree.Chain) {
	final := blocktree.HeaviestChain{}.Select(net.reps[1].Tree())
	stats := &AdversaryStats{AdversaryMerit: alpha, MainChainByProc: map[history.ProcID]int{}}
	for _, b := range final[1:] {
		stats.MainChainByProc[history.ProcID(b.Proposer)]++
	}
	for _, a := range res.History.SuccessfulAppends() {
		if a.Op.Proc == 0 {
			stats.AdversaryMined++
		} else {
			stats.HonestMined++
		}
	}
	mainLen := len(final) - 1
	if mainLen > 0 {
		advBlocks := stats.MainChainByProc[0]
		stats.AdversaryShare = float64(advBlocks) / float64(mainLen)
		stats.HonestShare = float64(mainLen-advBlocks) / float64(mainLen)
	}
	stats.Orphaned = stats.AdversaryMined + stats.HonestMined - mainLen
	return stats, final
}
