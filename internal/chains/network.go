package chains

import (
	"blockadt/internal/blocktree"
	"blockadt/internal/history"
	"blockadt/internal/netsim"
	"blockadt/internal/oracle"
)

// network is the simulation skeleton every driver runs on: the simulator,
// the replicas in process order and the flag that ends the mining phase.
// A driver adds what tells one system from another — its nodes and their
// timers, its oracle, its slice step, its drain rule and its census.
type network struct {
	p    Params
	sim  *netsim.Sim
	reps []*netsim.Replica
	// done is set once the best replica reaches the target chain length:
	// nodes stop mining and stop re-arming their read timers.
	done bool
}

const readTimer = "read"

// newNetwork builds the simulator over links for the defaulted params p.
// The history size is bounded by the run shape: per block roughly one
// append plus a (send, receive, update) record fan-out per replica, plus
// the periodic reads. Reserving up front keeps the recorder's append path
// reallocation-free.
func newNetwork(links netsim.LinkModel, p Params) *network {
	sim := netsim.New(links, p.Seed)
	sim.Recorder().Reserve(p.TargetBlocks*p.N*5 + p.N*16)
	return &network{p: p, sim: sim, reps: make([]*netsim.Replica, 0, p.N)}
}

// replica builds the next process's replica, its tree pre-sized for the
// target chain length plus forks.
func (n *network) replica(sel blocktree.Selector) *netsim.Replica {
	id := history.ProcID(len(n.reps))
	rep := netsim.NewReplicaCap(id, sel, n.sim.Recorder(), n.p.TargetBlocks+n.p.TargetBlocks/2)
	n.reps = append(n.reps, rep)
	return rep
}

// read takes a periodic read at rep and re-arms its timer until the
// mining phase ends.
func (n *network) read(s *netsim.Sim, rep *netsim.Replica) {
	rep.ReadIDs()
	if !n.done {
		s.TimerAt(rep.ID(), s.Now()+n.p.ReadEvery, readTimer)
	}
}

// mine runs the simulation in slices of step ticks until the best
// replica holds TargetBlocks blocks (or MaxTicks passes), ends the mining
// phase and returns the start of the last slice. The caller drains from
// there by its own rule.
func (n *network) mine(step int64) int64 {
	var t int64
	for t = 0; t < n.p.MaxTicks; t += step {
		n.sim.Run(t + step)
		if blocks, _ := bestReplica(n.reps); blocks >= n.p.TargetBlocks {
			break
		}
	}
	n.done = true
	return t
}

// bestReplica returns the replica stats over a set of replicas: the
// maximal committed chain length and the maximal fork census. Both are
// O(1) reads of counters the trees maintain on Insert — the progress check
// runs every few ticks, so it must not materialize chains.
func bestReplica(reps []*netsim.Replica) (blocks, forks int) {
	for _, r := range reps {
		t := r.Tree()
		if n := t.Height(); n > blocks {
			blocks = n
		}
		if f := t.Forks(); f > forks {
			forks = f
		}
	}
	return blocks, forks
}

// result takes the final round of reads in process order, so the history
// exhibits convergence, and assembles the run's Result.
func (n *network) result(system, refinement, oracleName string, sel blocktree.Selector, k int) Result {
	for _, rep := range n.reps {
		rep.ReadIDs()
	}
	blocks, forks := bestReplica(n.reps)
	return Result{
		System:       system,
		Refinement:   refinement,
		OracleName:   oracleName,
		SelectorName: sel.Name(),
		K:            k,
		History:      n.sim.Recorder().Finalize(),
		Blocks:       blocks,
		Forks:        forks,
		Ticks:        n.sim.Now(),
		Delivered:    n.sim.Delivered,
		Dropped:      n.sim.Dropped,
		Bytes:        n.sim.Bytes,
	}
}

// release hands every replica's tree back to blocktree.NewCap for the
// next run to reuse (blocktree.Tree.Release). A Result keeps only the
// history and counters, so a driver calls it once it is done: after
// result, and for the withholding drivers after withholdingCensus, the
// last reader of a tree. Nothing may touch a replica afterwards.
func (n *network) release() {
	for _, rep := range n.reps {
		rep.Tree().Release()
	}
}

// appendBlock is the token race every oracle-driven miner runs on a tkn
// cell (the caller has already drawn it with PopBottom): getToken for
// candidate on parent; on a grant, count the attempt, record the append
// invocation, consumeToken — always valid under Θ_P, first-come under
// Θ_F,k=1 — and record the response. It returns the valid block and
// whether it may be disseminated.
func appendBlock(s *netsim.Sim, orc *oracle.Oracle, id history.ProcID, merit int, count *int, parent, candidate blocktree.BlockID) (blocktree.Block, bool) {
	tok, ok := orc.GetToken(merit, parent, candidate)
	if !ok {
		return blocktree.Block{}, false
	}
	*count++
	rec := s.Recorder()
	op := rec.Invoke(id, history.Label{Kind: history.KindAppend, Block: candidate})
	_, inserted, err := orc.ConsumeToken(tok)
	ok = err == nil && inserted
	rec.Respond(op, history.Label{Kind: history.KindAppend, Block: candidate, Parent: parent, OK: ok})
	return blocktree.Block{ID: candidate, Parent: parent, Work: 1, Token: tok.ID, Proposer: merit}, ok
}
