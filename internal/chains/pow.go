package chains

import (
	"blockadt/internal/blocktree"
	"blockadt/internal/consistency"
	"blockadt/internal/netsim"
	"blockadt/internal/oracle"
)

// powNode is a proof-of-work miner: at every mining tick it invokes
// getToken on the tip of its locally selected chain (the PoW attempt,
// Section 5.1); a granted token is consumed (always possible with Θ_P) and
// the resulting valid block is flooded with the LRC broadcast.
type powNode struct {
	rep     *netsim.Replica
	orc     *oracle.Oracle
	merit   int
	counter int
	net     *network
}

const mineTimer = "mine"

// OnTimer implements netsim.Handler.
func (n *powNode) OnTimer(s *netsim.Sim, tag string) {
	switch tag {
	case mineTimer:
		if !n.net.done {
			n.mine(s)
			s.TimerAt(n.rep.ID(), s.Now()+n.net.p.MineInterval, mineTimer)
		}
	case readTimer:
		n.net.read(s, n.rep)
	}
}

// OnMessage implements netsim.Handler.
func (n *powNode) OnMessage(s *netsim.Sim, m netsim.Message) {
	n.rep.OnMessage(s, m)
}

// mine draws the head cell of the miner's tape first: most attempts draw
// ⊥, and only a tkn cell is worth selecting a tip and naming a block for.
func (n *powNode) mine(s *netsim.Sim) {
	if n.orc.PopBottom(n.merit) {
		return
	}
	parent := n.rep.SelectedTip()
	candidate := blockName(parent.Height+1, 'p', n.rep.ID(), n.counter)
	if b, ok := appendBlock(s, n.orc, n.rep.ID(), n.merit, &n.counter, parent.ID, candidate); ok {
		n.rep.CreateAndBroadcast(s, parent.ID, b)
	}
}

// runPoWTopo drives a permissionless PoW network with the given selector
// over an explicit link model (nil = synchronous with bound Delta) and
// dissemination topology (nil = complete-graph broadcast; non-nil
// switches replicas to Gossiper flooding over the topology). The
// asynchronous variants back the Section 4.2 open-issue experiments:
// Eventual Prefix under unbounded delay.
func runPoWTopo(name, refinement string, sel blocktree.Selector, links netsim.LinkModel, topo netsim.Topology, p Params) Result {
	p = p.withDefaults()
	if links == nil {
		links = netsim.Synchronous{Delta: p.Delta}
	}
	net := newNetwork(links, p)
	orc := newProdigal(p)
	for i := 0; i < p.N; i++ {
		rep := net.replica(sel)
		if topo != nil {
			rep.EnableGossip(topo)
		}
		id := rep.ID()
		net.sim.Register(id, &powNode{rep: rep, orc: orc, merit: i, net: net})
		net.sim.TimerAt(id, 1+int64(i)%p.MineInterval, mineTimer)
		net.sim.TimerAt(id, 2+int64(i)%p.ReadEvery, readTimer)
	}
	t := net.mine(64)
	// Drain every in-flight message before the final convergence reads.
	// A fixed window (the old `sim.Run(t + 64 + 16*p.Delta)`) is wrong
	// under heavy-tail links: a Jitter straggler or an Asynchronous tail
	// can exceed any constant multiple of Delta, leaving deliveries
	// pending when the reads run — a harness artifact the consistency
	// checkers then misattribute to the model. RunToIdle stops at the last
	// real delivery; the cap only bounds runaway schedules.
	net.sim.RunToIdle(t + 64 + p.MaxTicks)
	res := net.result(name, refinement, orc.Name(), sel, oracle.Unbounded)
	net.release()
	return res
}

var (
	// Bitcoin is Section 5.1: permissionless, merits are hashing power,
	// the getToken operation is proof-of-work, consumeToken returns true
	// for all valid blocks (no bound on consumed tokens ⇒ prodigal oracle
	// Θ_P), and f selects the chain that required the most work. Bitcoin
	// implements R(BT-ADT_EC, Θ_P): Eventual consistency only.
	Bitcoin = System{
		Name:       "Bitcoin",
		Refinement: "R(BT-ADT_EC, Θ_P)",
		Expected:   consistency.LevelEC,
		Selector:   blocktree.HeaviestChain{},
	}
	// Ethereum is Section 5.2: as Bitcoin but the merit parameter models
	// memory-bound work and f is implemented through the GHOST algorithm.
	// Ethereum implements R(BT-ADT_EC, Θ_P).
	Ethereum = System{
		Name:       "Ethereum",
		Refinement: "R(BT-ADT_EC, Θ_P)",
		Expected:   consistency.LevelEC,
		Selector:   blocktree.GHOST{},
	}
)
