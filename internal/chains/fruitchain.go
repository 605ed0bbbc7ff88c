package chains

import (
	"encoding/json"
	"fmt"

	"blockadt/internal/blocktree"
	"blockadt/internal/history"
	"blockadt/internal/netsim"
	"blockadt/internal/oracle"
)

// This file implements the FruitChain protocol (Pass & Shi), which
// Section 5.1 classifies alongside Bitcoin: "the same conclusion applies
// as well for the FruitChain protocol, which proposes a protocol similar
// to Bitcoin except for the rewarding mechanism". The consistency
// classification is identical — R(BT-ADT_EC, Θ_P) — but rewards are paid
// per *fruit*: a lightweight proof-of-work product mined in parallel with
// blocks, gossiped, and included into whichever blocks come next. Because
// a fruit is included by any honest block regardless of who wins the block
// race, withholding attacks that skew block authorship leave the fruit
// (reward) distribution near the merit distribution — fairness by design.
//
// The experiment (X9) runs the same selfish-mining adversary as X7 and
// compares two censuses over the final main chain: block authorship
// (badly skewed) versus fruit rewards (close to merit entitlement).

// Fruit is the lightweight PoW product; it pays its miner one reward unit
// once included in a main-chain block.
type Fruit struct {
	ID    string         `json:"id"`
	Miner history.ProcID `json:"miner"`
}

// WireSize reports the fruit's approximate serialized size for the
// network simulator's byte accounting (netsim.Sized).
func (f Fruit) WireSize() int { return len(f.ID) + 8 }

// fruitMsg is the gossip kind carrying fruits.
const fruitMsg = "fruit"

// fruitPayload is the block payload: the included fruits.
type fruitPayload struct {
	Fruits []Fruit `json:"fruits"`
}

func encodeFruits(fruits []Fruit) []byte {
	b, err := json.Marshal(fruitPayload{Fruits: fruits})
	if err != nil {
		panic(err) // marshalling a struct of strings cannot fail
	}
	return b
}

// DecodeFruits extracts the fruits included in a block payload.
func DecodeFruits(payload []byte) []Fruit {
	if len(payload) == 0 {
		return nil
	}
	var p fruitPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil
	}
	return p.Fruits
}

// fruitNode is an honest FruitChain miner: it mines blocks through the
// prodigal oracle exactly like powNode, mines fruits on a parallel
// high-rate tape, gossips fruits, and includes every pending fruit it has
// seen into the blocks it wins.
type fruitNode struct {
	rep       *netsim.Replica
	orc       *oracle.Oracle
	fruitTape *oracle.Tape
	merit     int
	counter   int
	fruitSeq  int
	// pending are fruits seen but not yet observed inside the local
	// selected chain.
	pending map[string]Fruit
	net     *network
}

// OnTimer implements netsim.Handler.
func (n *fruitNode) OnTimer(s *netsim.Sim, tag string) {
	switch tag {
	case mineTimer:
		if n.net.done {
			return
		}
		n.mineFruit(s)
		n.mineBlock(s)
		s.TimerAt(n.rep.ID(), s.Now()+n.net.p.MineInterval, mineTimer)
	case readTimer:
		n.net.read(s, n.rep)
	}
}

func (n *fruitNode) mineFruit(s *netsim.Sim) {
	if !n.fruitTape.Pop() {
		return
	}
	f := Fruit{ID: fruitName('p', n.rep.ID(), n.fruitSeq), Miner: n.rep.ID()}
	n.fruitSeq++
	n.pending[f.ID] = f
	s.Broadcast(n.rep.ID(), netsim.Message{Kind: fruitMsg, Origin: n.rep.ID(), Payload: f})
}

func (n *fruitNode) mineBlock(s *netsim.Sim) {
	if n.orc.PopBottom(n.merit) {
		return
	}
	parent := n.rep.SelectedTip()
	candidate := blockName(parent.Height+1, 'p', n.rep.ID(), n.counter)
	b, ok := appendBlock(s, n.orc, n.rep.ID(), n.merit, &n.counter, parent.ID, candidate)
	if !ok {
		return
	}
	// Include every pending fruit not already on the selected chain.
	b.Payload = encodeFruits(n.harvest())
	n.rep.CreateAndBroadcast(s, parent.ID, b)
}

// harvest returns the pending fruits absent from the locally selected
// chain and prunes the pending set of fruits already included.
func (n *fruitNode) harvest() []Fruit {
	onChain := map[string]bool{}
	for _, blk := range n.rep.Selected() {
		for _, f := range DecodeFruits(blk.Payload) {
			onChain[f.ID] = true
		}
	}
	var out []Fruit
	for id, f := range n.pending {
		if onChain[id] {
			delete(n.pending, id)
			continue
		}
		out = append(out, f)
	}
	// Deterministic inclusion order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// OnMessage implements netsim.Handler.
func (n *fruitNode) OnMessage(s *netsim.Sim, m netsim.Message) {
	switch m.Kind {
	case fruitMsg:
		if f, ok := m.Payload.(Fruit); ok {
			n.pending[f.ID] = f
		}
	default:
		n.rep.OnMessage(s, m)
	}
}

// runFruitChainAttack is the FruitWithholding plan's driver: N-1 honest
// FruitChain miners against the same selfish block-withholding adversary
// as runSelfishMining, with alpha as the merit share. The
// adversary also mines fruits (at its merit rate) but its withheld
// blocks include only its own fruits, the worst case for honest rewards.
// The census lands on Result.Adversary: the block census both
// withholding drivers take (withholdingCensus), plus block authorship
// vs fruit rewards.
func runFruitChainAttack(p Params, alpha float64) Result {
	p = withholdingParams(p, alpha)
	net := newNetwork(netsim.Synchronous{Delta: p.Delta}, p)
	orc := newProdigal(p)

	// The adversary: selfish block miner + own-fruit inclusion.
	adv := &fruitSelfishMiner{
		selfishMiner: selfishMiner{rep: net.replica(blocktree.HeaviestChain{}), orc: orc, net: net},
		fruitTape:    oracle.NewTape(p.Seed^0xF007, 0, 10*p.Merits[0]),
	}
	adv.private = adv.rep.Tree().Clone()
	net.sim.Register(0, adv)
	net.sim.TimerAt(0, 1, mineTimer)
	for i := 1; i < p.N; i++ {
		rep := net.replica(blocktree.HeaviestChain{})
		id := rep.ID()
		net.sim.Register(id, &fruitNode{
			rep: rep, orc: orc, merit: i, net: net,
			fruitTape: oracle.NewTape(p.Seed^0xF007, i, 10*p.Merits[i]),
			pending:   map[string]Fruit{},
		})
		net.sim.TimerAt(id, 1+int64(i)%p.MineInterval, mineTimer)
		net.sim.TimerAt(id, 2+int64(i)%p.ReadEvery, readTimer)
	}
	t := net.mine(64)
	adv.publish(net.sim, len(adv.withheld))
	net.sim.Run(t + 64 + 16*p.Delta)
	res := net.result(fmt.Sprintf("FruitChain+selfish(α=%.2f)", alpha), "R(BT-ADT_EC, Θ_P) — fair rewards via fruits",
		orc.Name(), blocktree.HeaviestChain{}, oracle.Unbounded)

	stats, final := withholdingCensus(net, res, alpha)
	net.release()
	stats.BlockShareByProc = stats.MainChainByProc
	stats.FruitRewardByProc = map[history.ProcID]int{}
	stats.FinalChain = final
	stats.AdversaryBlockShare = stats.AdversaryShare
	totalRewards := 0
	for _, b := range final[1:] {
		for _, f := range DecodeFruits(b.Payload) {
			stats.FruitRewardByProc[f.Miner]++
			totalRewards++
		}
	}
	if totalRewards > 0 {
		stats.AdversaryRewardShare = float64(stats.FruitRewardByProc[0]) / float64(totalRewards)
	}
	res.Adversary = stats
	return res
}

// fruitSelfishMiner extends the selfish block miner with adversarial fruit
// handling: it mines fruits at its merit rate, keeps them private, and
// includes only its own fruits in its withheld blocks.
type fruitSelfishMiner struct {
	selfishMiner
	fruitTape *oracle.Tape
	fruitSeq  int
	ownFruits []Fruit
}

// OnTimer overrides the block-mining timer to also mine fruits and stuff
// withheld blocks with the adversary's own fruits.
func (m *fruitSelfishMiner) OnTimer(s *netsim.Sim, tag string) {
	if tag == mineTimer && !m.net.done {
		if m.fruitTape.Pop() {
			f := Fruit{ID: fruitName('z', m.rep.ID(), m.fruitSeq), Miner: m.rep.ID()}
			m.fruitSeq++
			m.ownFruits = append(m.ownFruits, f)
		}
	}
	before := len(m.withheld)
	m.selfishMiner.OnTimer(s, tag)
	if len(m.withheld) > before {
		// A fresh private block: attach the adversary's unspent fruits.
		nb := &m.withheld[len(m.withheld)-1]
		nb.Payload = encodeFruits(m.ownFruits)
		m.ownFruits = nil
		// Mirror the payload into the private tree copy is unnecessary:
		// the withheld slice is what gets published.
	}
}

// OnMessage drops honest fruit gossip (the adversary never includes honest
// fruits — worst case) and defers to the selfish block policy otherwise.
func (m *fruitSelfishMiner) OnMessage(s *netsim.Sim, msg netsim.Message) {
	if msg.Kind == fruitMsg {
		return
	}
	m.selfishMiner.OnMessage(s, msg)
}
