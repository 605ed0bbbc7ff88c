package chains

import (
	"fmt"
	"strings"

	"blockadt/internal/blocktree"
	"blockadt/internal/consistency"
	"blockadt/internal/history"
	"blockadt/internal/netsim"
	"blockadt/internal/pbft"
)

// This file discharges the abstraction the consensus-based simulators use:
// where bft.go realizes the "Byzantine-tolerant commit" as an atomic
// consumeToken on Θ_F,k=1 (the paper's own oracle reading), PBFTChain
// commits each block through the actual three-phase PBFT protocol of
// internal/pbft. The resulting histories must — and do, see
// pbftchain_test.go — classify exactly like the oracle-committed ones:
// strongly consistent, fork-free. That equivalence is the executable
// content of the paper's claim that PBFT-based systems implement
// R(BT-ADT_SC, Θ_F,k=1).

// pbftChainNode couples a PBFT replica with a BlockTree replica: writers
// propose one candidate block per slot; every decision is applied, in slot
// order, to the local tree.
type pbftChainNode struct {
	bft     *pbft.Replica
	tree    *netsim.Replica
	writers int
	slot    int
	// decided buffers out-of-order slot decisions until their
	// predecessor slot has been applied.
	decided map[int]pbft.Value
	applied int
	net     *network
}

// slotValue encodes (proposer, block id) so the decided value names its
// block unambiguously.
func slotValue(slot int, proposer history.ProcID) pbft.Value {
	return fmt.Sprintf("p%02d|%s", proposer, blockName(slot+1, 'p', proposer, slot))
}

func parseSlotValue(v pbft.Value) (history.ProcID, blocktree.BlockID) {
	parts := strings.SplitN(v, "|", 2)
	if len(parts) != 2 {
		return 0, ""
	}
	var p int
	fmt.Sscanf(parts[0], "p%d", &p)
	return history.ProcID(p), blocktree.BlockID(parts[1])
}

const slotTimer = "slot"

// OnTimer implements netsim.Handler.
func (n *pbftChainNode) OnTimer(s *netsim.Sim, tag string) {
	switch tag {
	case slotTimer:
		if n.net.done {
			return
		}
		slot := n.slot
		n.slot++
		if int(n.tree.ID()) < n.writers {
			n.bft.Propose(s, slot, slotValue(slot, n.tree.ID()))
		} else {
			// Non-writers still run the PBFT replica (they vote) but
			// propose nothing.
			n.bft.Propose(s, slot, "")
		}
		s.TimerAt(n.tree.ID(), s.Now()+3*n.net.p.Delta, slotTimer)
	case readTimer:
		n.net.read(s, n.tree)
	default:
		n.bft.OnTimer(s, tag)
	}
}

// OnMessage implements netsim.Handler.
func (n *pbftChainNode) OnMessage(s *netsim.Sim, m netsim.Message) {
	n.bft.OnMessage(s, m)
}

// onDecide applies decided blocks in slot order.
func (n *pbftChainNode) onDecide(s *netsim.Sim, slot int, v pbft.Value) {
	n.decided[slot] = v
	rec := s.Recorder()
	for {
		val, ok := n.decided[n.applied]
		if !ok {
			break
		}
		proposer, block := parseSlotValue(val)
		if block != "" {
			parent := n.tree.Selected().Tip().ID
			// The proposer's replica records the append operation the
			// history criteria quantify over; every replica records
			// its local update.
			if n.tree.ID() == proposer {
				op := rec.Invoke(proposer, history.Label{Kind: history.KindAppend, Block: block})
				rec.Respond(op, history.Label{Kind: history.KindAppend, Block: block, Parent: parent, OK: true})
			}
			b := blocktree.Block{ID: block, Parent: parent, Work: 1, Token: uint64(n.applied + 1), Proposer: int(proposer)}
			if n.tree.Tree().Has(parent) {
				// Apply locally; recorded as an update event.
				n.applyLocal(s, parent, b, proposer)
			}
		}
		n.applied++
	}
}

func (n *pbftChainNode) applyLocal(s *netsim.Sim, parent blocktree.BlockID, b blocktree.Block, origin history.ProcID) {
	// Reuse the replica's update path without a network hop: the PBFT
	// decision certificate *is* the dissemination.
	n.tree.OnMessage(s, netsim.Message{Kind: netsim.UpdateMsg, Parent: parent, Block: b.ID, Origin: origin, Payload: b})
	if origin == n.tree.ID() {
		// Self-origin updates are skipped by OnMessage (they assume
		// CreateAndBroadcast applied them); apply directly.
		n.tree.ApplyDecided(parent, b)
	}
}

// PBFTChain is the consortium chain whose per-slot commit is the real
// three-phase PBFT protocol (writers = Params.Writers, default N/2+). It
// is a System value — experiments and benchmarks run it like a Table 1
// row (deliberately unregistered in the façade: the registered committee
// systems commit through the Θ_F,k=1 oracle reading; this one exists to
// discharge that abstraction).
type PBFTChain struct{}

// Name implements System.
func (PBFTChain) Name() string { return "PBFT-chain" }

// Refinement implements System.
func (PBFTChain) Refinement() string { return "R(BT-ADT_SC, Θ_F,k=1) — commit by real PBFT" }

// Expected implements System.
func (PBFTChain) Expected() consistency.Level { return consistency.LevelSC }

// Run implements System.
func (PBFTChain) Run(p Params) Result {
	p = p.withDefaults()
	writers := p.Writers
	if writers <= 0 || writers > p.N {
		writers = (p.N + 1) / 2
	}
	net := newNetwork(netsim.Synchronous{Delta: p.Delta}, p)
	for i := 0; i < p.N; i++ {
		tree := net.replica(blocktree.SingleChain{})
		id := tree.ID()
		node := &pbftChainNode{tree: tree, writers: writers, decided: map[int]pbft.Value{}, net: net}
		node.bft = pbft.NewReplica(id, pbft.Config{
			N:           p.N,
			ViewTimeout: 8 * p.Delta,
			OnDecide:    func(r *pbft.Replica, slot int, v pbft.Value) { node.onDecide(net.sim, slot, v) },
		})
		net.sim.Register(id, node)
		net.sim.TimerAt(id, 1, slotTimer)
		net.sim.TimerAt(id, 2+int64(i)%p.ReadEvery, readTimer)
	}
	t := net.mine(3 * p.Delta)
	net.sim.Run(t + 3*p.Delta + 32*p.Delta)
	return net.result(PBFTChain{}.Name(), PBFTChain{}.Refinement(), "pbft(n="+fmt.Sprint(p.N)+")", blocktree.SingleChain{}, 1)
}
