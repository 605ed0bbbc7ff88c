package chains

import (
	"slices"
	"testing"

	"blockadt/internal/blocktree"
	"blockadt/internal/consistency"
	"blockadt/internal/history"
	"blockadt/internal/netsim"
	"blockadt/internal/oracle"
)

// claimSeeds returns the seed a paper-claim test pins plus, outside
// -short, the alternate seeds 1, 9 and 123, so that no claim holds only
// by the luck of one seed.
func claimSeeds(pinned uint64) []uint64 {
	if testing.Short() {
		return []uint64{pinned}
	}
	return slices.Compact(slices.Sorted(slices.Values([]uint64{pinned, 1, 9, 123})))
}

// The Theorem 4.8 schedule: synchronous channels whose delay is exactly
// δ, and two appends invoked at the same instant t0.
const (
	thm48Delta = 10
	thm48T0    = 5
)

// runTheorem48 executes the proof schedule of Theorem 4.8 under Θ_F,k:
// two correct processes i and j both invoke append on their local tip b0
// at t0 — getToken, consumeToken, then update locally and broadcast via
// LRC — and each reads at every time in readAt. It returns the recorded
// history, the replicas and the oracle.
func runTheorem48(t *testing.T, k int, seed uint64, readAt ...int64) (*history.History, map[history.ProcID]*netsim.Replica, *oracle.Oracle) {
	t.Helper()
	sim := netsim.New(netsim.Synchronous{Delta: thm48Delta, Min: thm48Delta}, seed)
	orc := oracle.NewFrugal(k, seed, 1, 1)
	rec := sim.Recorder()

	reps := map[history.ProcID]*netsim.Replica{}
	for _, p := range []history.ProcID{0, 1} {
		rep := netsim.NewReplica(p, blocktree.LongestChain{}, rec)
		reps[p] = rep
		sim.Register(p, netsim.HandlerFuncs{
			Message: func(s *netsim.Sim, m netsim.Message) { rep.OnMessage(s, m) },
			Timer: func(s *netsim.Sim, tag string) {
				switch tag {
				case "append":
					parent := rep.Selected().Tip()
					id := blocktree.BlockID("b_" + string(rune('i'+p)))
					tok, ok := orc.GetToken(int(p), parent.ID, id)
					if !ok {
						t.Errorf("seed=%d: token refused at p%d", seed, p)
						return
					}
					op := rec.Invoke(p, history.Label{Kind: history.KindAppend, Block: id})
					_, inserted, err := orc.ConsumeToken(tok)
					rec.Respond(op, history.Label{Kind: history.KindAppend, Block: id, Parent: parent.ID, OK: inserted && err == nil})
					if inserted && err == nil {
						rep.CreateAndBroadcast(s, parent.ID, blocktree.Block{ID: id, Parent: parent.ID, Token: tok.ID})
					}
				case "read":
					rep.Read()
				}
			},
		})
		sim.TimerAt(p, thm48T0, "append")
		for _, at := range readAt {
			sim.TimerAt(p, at, "read")
		}
	}
	sim.Run(thm48T0 + 4*thm48Delta)
	return rec.Snapshot(), reps, orc
}

// TestTheorem48ForkImpossibility executes the proof construction of
// Theorem 4.8: two correct processes i and j, synchronous channels, an LRC
// primitive, and an oracle that allows forks (here Θ_F,k=2). At the same
// instant t0 both invoke append on b0; both tokens are consumable (k = 2),
// both updates are exchanged, and at a time t < t0+δ — before the remote
// updates are delivered — each process reads its own branch: the reads
// return b0⌢b_i at i and b0⌢b_j at j, neither a prefix of the other. Strong
// Prefix is violated even in a fault-free synchronous environment,
// demonstrating that no Θ ≠ Θ_F,k=1 refinement implements BT-ADT_SC.
func TestTheorem48ForkImpossibility(t *testing.T) {
	for _, seed := range claimSeeds(1) {
		// Reads at t < t0 + δ: the remote updates (delay exactly δ) have
		// not arrived, so each process sees only its own block.
		h, _, orc := runTheorem48(t, 2, seed, thm48T0+thm48Delta/2)
		reads := h.Reads()
		if len(reads) != 2 {
			t.Fatalf("seed=%d: reads = %d", seed, len(reads))
		}
		c0, c1 := reads[0].Chain, reads[1].Chain
		if c0.HasPrefix(c1) || c1.HasPrefix(c0) {
			t.Fatalf("seed=%d: the construction failed to diverge: %s vs %s", seed, c0, c1)
		}
		if v := consistency.StrongPrefix(h, consistency.Options{}); v.Satisfied {
			t.Fatalf("seed=%d: Strong Prefix holds — Theorem 4.8's construction broken", seed)
		}
		// Both appends succeeded: the k=2 oracle admitted the fork.
		if got := len(h.SuccessfulAppends()); got != 2 {
			t.Fatalf("seed=%d: successful appends = %d, want 2", seed, got)
		}
		if !orc.KForkCoherent() {
			t.Fatalf("seed=%d: oracle exceeded its own bound", seed)
		}
	}
}

// TestCorollary481K1PreventsTheFork re-runs the Theorem 4.8 schedule with
// Θ_F,k=1: exactly one of the two simultaneous appends succeeds, the tree
// never forks, and the reads are prefix-related (Corollary 4.8.1:
// Θ_F,k=1 is necessary for Strong Prefix).
func TestCorollary481K1PreventsTheFork(t *testing.T) {
	for _, seed := range claimSeeds(1) {
		// A read before the remote update arrives, and a
		// post-convergence read.
		h, reps, _ := runTheorem48(t, 1, seed, thm48T0+thm48Delta/2, thm48T0+3*thm48Delta)
		if got := len(h.SuccessfulAppends()); got != 1 {
			t.Fatalf("seed=%d: successful appends = %d, want 1 under k=1", seed, got)
		}
		if v := consistency.StrongPrefix(h, consistency.Options{}); !v.Satisfied {
			t.Fatalf("seed=%d: Strong Prefix violated under k=1: %s", seed, v)
		}
		for p, rep := range reps {
			if rep.Tree().MaxFanout() > 1 {
				t.Fatalf("seed=%d: replica %d forked under k=1", seed, p)
			}
		}
	}
}
