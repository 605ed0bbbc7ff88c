package netsim

import (
	"blockadt/internal/blocktree"
	"blockadt/internal/history"
)

// Replica is the generic replicated BT-ADT implementation of Section 4.2:
// each process i maintains a local copy bt_i of the BlockTree; an update
// related to a block b generated at process i is applied locally with
// update_i(bg, b), communicated with send_i(bg, b), and takes effect on a
// remote replica bt_j when receive_j(bg, b) triggers update_j(bg, b).
//
// All three event kinds are recorded into the simulator's history, which is
// what the Update Agreement (Definition 4.3) and LRC (Definition 4.4)
// checkers consume. Updates whose predecessor has not arrived yet are
// buffered and applied when the gap fills, preserving R2's receive-before-
// update order.
type Replica struct {
	id  history.ProcID
	bt  *blocktree.SeqBlockTree
	rec *history.Recorder
	// pending[parent] = blocks waiting for parent to arrive.
	pending map[blocktree.BlockID][]pendingBlock
	// gossip, when set (EnableGossip), routes update dissemination
	// through the flooding Gossiper over a restricted topology instead
	// of the simulator's complete-graph broadcast.
	gossip *Gossiper
	// UpdateKind is the message kind replicas react to ("update").
}

type pendingBlock struct {
	block  *blocktree.Block
	origin history.ProcID
}

// UpdateMsg is the message kind replicas exchange.
const UpdateMsg = "update"

// NewReplica returns a replica for process id using selection function f.
// The predicate is RequireToken-free here: validity is enforced upstream by
// the oracle (only validated blocks are ever broadcast, per Definition 4.2
// which restricts histories to appends of valid blocks).
func NewReplica(id history.ProcID, f blocktree.Selector, rec *history.Recorder) *Replica {
	return NewReplicaCap(id, f, rec, 0)
}

// NewReplicaCap is NewReplica with a capacity hint: the local tree is
// pre-sized for about n blocks (blocktree.NewCap, which reuses a released
// tree's buffers), so simulators that know their target chain length
// avoid incremental map growth on the hot insert path. Read chains are
// carved from rec's chain arena (Recorder.ChainBuf).
func NewReplicaCap(id history.ProcID, f blocktree.Selector, rec *history.Recorder, n int) *Replica {
	bt := blocktree.NewSeqCap(f, blocktree.AcceptAll, n)
	bt.SetChainBuf(rec.ChainBuf)
	return &Replica{
		id:      id,
		bt:      bt,
		rec:     rec,
		pending: map[blocktree.BlockID][]pendingBlock{},
	}
}

// ID returns the replica's process id.
func (r *Replica) ID() history.ProcID { return r.id }

// Tree exposes the local BlockTree copy bt_i. The returned tree is the
// replica's live structure, shared for efficiency: callers that mutate or
// retain it across steps must Clone() it.
func (r *Replica) Tree() *blocktree.Tree { return r.bt.Tree() }

// CreateAndBroadcast applies update_i(parent, b) for a locally generated
// block and sends it to all processes via the simulator's broadcast
// (send_i(parent, b)). It records the update and send events. The block is
// boxed once, as the *blocktree.Block every copy of the message carries;
// no receiver writes it.
func (r *Replica) CreateAndBroadcast(s *Sim, parent blocktree.BlockID, b blocktree.Block) {
	pb := &b
	r.applyUpdate(parent, pb, r.id)
	r.rec.Record(r.id, history.Label{Kind: history.KindSend, Parent: parent, Block: b.ID, Origin: r.id})
	m := Message{Kind: UpdateMsg, Parent: parent, Block: b.ID, Origin: r.id, Payload: pb}
	if r.gossip != nil {
		r.gossip.Publish(s, m)
		return
	}
	s.Broadcast(r.id, m)
}

// EnableGossip switches the replica's update dissemination from the
// simulator's complete-graph broadcast to Gossiper flooding over the
// given topology (nil: flooding over the complete graph). Originated
// blocks reach only the topology's direct peers; every replica relays
// the first copy it receives, so updates cross the graph hop by hop —
// the LRC abstraction carried by the protocol instead of the primitive.
// Call it before the simulation starts; dissemination mode is not
// meant to change mid-run.
func (r *Replica) EnableGossip(topo Topology) {
	r.gossip = NewGossiper(r.id, func(s *Sim, m Message) {
		b, ok := m.Payload.(*blocktree.Block)
		if !ok {
			return
		}
		r.rec.Record(r.id, history.Label{Kind: history.KindReceive, Parent: m.Parent, Block: m.Block, Origin: m.Origin})
		if m.Origin == r.id {
			// Own block: update already applied at creation.
			return
		}
		r.applyUpdate(m.Parent, b, m.Origin)
	})
	r.gossip.Topo = topo
}

// OnMessage handles an update delivery: records receive_j(bg, b) and applies
// update_j(bg, b), deferring it if the predecessor is unknown. An update
// carries its block as a *blocktree.Block payload; any other payload is
// not an update and is ignored. In gossip mode the first copy is
// additionally relayed to the topology's peers; duplicate copies are
// dropped without a receive record.
func (r *Replica) OnMessage(s *Sim, m Message) {
	if m.Kind != UpdateMsg {
		return
	}
	b, ok := m.Payload.(*blocktree.Block)
	if !ok {
		return
	}
	if r.gossip != nil {
		r.gossip.OnMessage(s, m)
		return
	}
	r.rec.Record(r.id, history.Label{Kind: history.KindReceive, Parent: m.Parent, Block: m.Block, Origin: m.Origin})
	if m.Origin == r.id {
		// Self-delivery: update already applied at creation.
		return
	}
	r.applyUpdate(m.Parent, b, m.Origin)
}

// applyUpdate runs update_i(parent, b), buffering b when its parent has not
// arrived yet; one tree call decides which.
func (r *Replica) applyUpdate(parent blocktree.BlockID, b *blocktree.Block, origin history.ProcID) {
	switch err := r.bt.Update(parent, b); err {
	case nil:
		r.rec.Record(r.id, history.Label{Kind: history.KindUpdate, Parent: parent, Block: b.ID, Origin: origin})
	case blocktree.ErrUnknownParent:
		r.pending[parent] = append(r.pending[parent], pendingBlock{block: b, origin: origin})
		return
	}
	if len(r.pending) == 0 {
		return
	}
	// Drain blocks that were waiting for b.
	waiting := r.pending[b.ID]
	delete(r.pending, b.ID)
	for _, w := range waiting {
		r.applyUpdate(b.ID, w.block, w.origin)
	}
}

// OnTimer implements Handler; replicas have no timers of their own.
func (r *Replica) OnTimer(*Sim, string) {}

// Read performs the read() operation on the local replica, recording
// invocation and response.
func (r *Replica) Read() blocktree.Chain {
	op := r.rec.Invoke(r.id, history.Label{Kind: history.KindRead})
	c := r.bt.Read()
	r.rec.Respond(op, history.Label{Kind: history.KindRead, Chain: c.IDs()})
	return c
}

// ReadIDs performs read() recording only the chain's block ids — the same
// response label Read records, without materializing the []Block chain.
// The simulation drivers call it on their periodic read timers, where the
// returned chain is only ever recorded, never inspected. The chain is a
// view of the recorder's chain arena (SeqBlockTree.ReadIDs), so it dies
// with the Release of the history the recorder finalizes.
func (r *Replica) ReadIDs() history.Chain {
	op := r.rec.Invoke(r.id, history.Label{Kind: history.KindRead})
	ids := r.bt.ReadIDs()
	r.rec.Respond(op, history.Label{Kind: history.KindRead, Chain: ids})
	return ids
}

// ApplyDecided applies a block this replica proposed and an agreement
// protocol decided (rather than a network update message): the decision
// certificate replaces the wire hop, so the block is inserted directly,
// recorded as an update event, and recorded as the proposer's send — the
// dissemination Update Agreement's R1 requires of a locally generated
// block (Definition 4.3). Used by the PBFT-committed chains.
func (r *Replica) ApplyDecided(parent blocktree.BlockID, b *blocktree.Block) {
	r.applyUpdate(parent, b, r.id)
	r.rec.Record(r.id, history.Label{Kind: history.KindSend, Parent: parent, Block: b.ID, Origin: r.id})
}

// Selected applies the replica's selection function f to the local tree
// without recording a read event — the protocol-internal chain selection
// miners use to choose the block to extend (distinct from the ADT's read()
// operation, which belongs to the application-facing history).
func (r *Replica) Selected() blocktree.Chain { return r.bt.Read() }

// SelectedTip is Selected().Tip() without materializing the chain: the
// tip-only fast path for miners, which select on every granted token but
// only ever extend the tip.
func (r *Replica) SelectedTip() blocktree.Block { return r.bt.Tip() }

// Resync re-broadcasts every non-genesis block of the local tree — a
// one-shot anti-entropy pass. Partition-prone systems need it: updates
// broadcast during a partition are lost for the other side, and the LRC
// abstraction (whose necessity Theorem 4.7 proves) must be re-established
// after healing by exchanging the missed blocks. Receivers deduplicate
// through the ordinary update path, so resync is idempotent.
func (r *Replica) Resync(s *Sim) {
	t := r.bt.Tree()
	// Breadth-first from genesis so parents precede children on the wire.
	queue := []blocktree.BlockID{blocktree.GenesisID}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, child := range t.Children(id) {
			b, ok := t.Get(child)
			if !ok {
				continue
			}
			// Relay under the block's original creator so the
			// (b_g, b_i) naming of Definition 4.3 stays accurate.
			origin := r.id
			if b.Proposer >= 0 {
				origin = history.ProcID(b.Proposer)
			}
			r.rec.Record(r.id, history.Label{Kind: history.KindSend, Parent: b.Parent, Block: b.ID, Origin: origin})
			s.Broadcast(r.id, Message{Kind: UpdateMsg, Parent: b.Parent, Block: b.ID, Origin: origin, Payload: &b})
			queue = append(queue, child)
		}
	}
}

// PendingCount returns the number of buffered out-of-order blocks, useful
// to assert quiescence at the end of a run.
func (r *Replica) PendingCount() int {
	n := 0
	for _, v := range r.pending {
		n += len(v)
	}
	return n
}
