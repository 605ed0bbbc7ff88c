package chains

import (
	"testing"

	"blockadt/internal/blocktree"
	"blockadt/internal/consistency"
	"blockadt/internal/history"
	"blockadt/internal/netsim"
	"blockadt/internal/oracle"
)

// equivocationRun builds a 3-process execution in which process 0 is
// Byzantine: it mints two sibling blocks for the same predecessor and sends
// each to a different peer only (selective send — no LRC). The oracle
// parameter decides whether the equivocation is even possible: Θ_P
// validates both blocks; Θ_F,k=1 refuses the second consumption.
func equivocationRun(t *testing.T, orc *oracle.Oracle) (*netsim.Sim, map[history.ProcID]*netsim.Replica) {
	t.Helper()
	sim := netsim.New(netsim.Synchronous{Delta: 3}, 2)
	rec := sim.Recorder()
	reps := map[history.ProcID]*netsim.Replica{}
	for _, p := range []history.ProcID{1, 2} {
		rep := netsim.NewReplica(p, blocktree.LongestChain{}, rec)
		reps[p] = rep
		sim.Register(p, netsim.HandlerFuncs{
			Message: func(s *netsim.Sim, m netsim.Message) { rep.OnMessage(s, m) },
			Timer:   func(s *netsim.Sim, tag string) { rep.Read() },
		})
	}
	// The Byzantine process equivocates at t=1: two blocks on b0,
	// selectively delivered. Its own history events are not recorded —
	// Definition 4.2 restricts histories to events at correct processes.
	sim.Register(0, netsim.HandlerFuncs{Timer: func(s *netsim.Sim, tag string) {
		mint := func(id blocktree.BlockID, to history.ProcID) {
			tok, ok := orc.GetToken(0, "b0", id)
			if !ok {
				return
			}
			if _, inserted, err := orc.ConsumeToken(tok); err != nil || !inserted {
				return // the frugal oracle stops the second block here
			}
			b := &blocktree.Block{ID: id, Parent: "b0", Token: tok.ID, Proposer: 0}
			s.Send(netsim.Message{From: 0, To: to, Kind: netsim.UpdateMsg, Parent: "b0", Block: id, Origin: 0, Payload: b})
		}
		mint("evil-x", 1)
		mint("evil-y", 2)
	}})
	sim.TimerAt(0, 1, "equivocate")
	// Reads at the two honest processes, well after delivery.
	for _, p := range []history.ProcID{1, 2} {
		for i := int64(0); i < 6; i++ {
			sim.TimerAt(p, 10+8*i, "read")
		}
	}
	sim.Run(100)
	return sim, reps
}

// TestByzantineEquivocationUnderProdigal: with Θ_P the two sibling blocks
// both validate; the selective sends violate LRC Agreement and the two
// honest replicas diverge permanently — Eventual Prefix fails. This is the
// constructive reason Update Agreement (Definition 4.3) quantifies over
// every correct process's updates.
func TestByzantineEquivocationUnderProdigal(t *testing.T) {
	orc := oracle.NewProdigal(3, 1)
	sim, reps := equivocationRun(t, orc)

	c1, c2 := reps[1].Read(), reps[2].Read()
	if c1.String() == c2.String() {
		t.Fatalf("honest replicas agree (%s) — equivocation did not bite", c1)
	}

	h := sim.Recorder().Snapshot()
	opts := consistency.Options{Procs: []history.ProcID{1, 2}, GraceWindow: 2}
	if v := consistency.LRC(h, opts); v.Satisfied {
		t.Fatal("selective send passed the LRC check")
	}
	if v := consistency.EventualPrefix(h, opts); v.Satisfied {
		t.Fatal("permanent divergence passed Eventual Prefix")
	}
}

// TestByzantineEquivocationStoppedByFrugalK1: the same Byzantine schedule
// against Θ_F,k=1 — the oracle consumes only one of the two sibling
// tokens, so a single block circulates and the honest replicas cannot be
// split. The oracle's synchronization power, not the network, is what
// bounds equivocation (Theorem 3.2 with k = 1).
func TestByzantineEquivocationStoppedByFrugalK1(t *testing.T) {
	orc := oracle.NewFrugal(1, 3, 1)
	_, reps := equivocationRun(t, orc)

	c1, c2 := reps[1].Read(), reps[2].Read()
	// Exactly one of the two blocks exists; the replica it was sent to
	// has it, the other is still at genesis — prefix-related, no
	// divergence.
	if !c1.IDs().HasPrefix(c2.IDs()) && !c2.IDs().HasPrefix(c1.IDs()) {
		t.Fatalf("divergence under k=1: %s vs %s", c1, c2)
	}
	if got := len(orc.ConsumedSet("b0")); got != 1 {
		t.Fatalf("K[b0] = %d blocks, want 1", got)
	}
}
