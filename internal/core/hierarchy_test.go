package core

import (
	"slices"
	"testing"
	"testing/quick"

	"blockadt/internal/consistency"
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

// TestTheorem32RealizedFanoutBoundedByK: the fork workload's realized
// fanout never exceeds the oracle bound — the structural consequence of
// k-Fork Coherence on the BlockTree.
func TestTheorem32RealizedFanoutBoundedByK(t *testing.T) {
	for _, seed := range claimSeeds(17) {
		for _, k := range []int{1, 2, 3, 8} {
			res := ForkWorkload{K: k, Procs: 8, Rounds: 6, Seed: seed}.Run()
			if res.MaxFanout > k {
				t.Fatalf("seed=%d k=%d: realized fanout %d", seed, k, res.MaxFanout)
			}
			v := consistency.KForkCoherence(res.History, k, consistency.Options{})
			if !v.Satisfied {
				t.Fatalf("seed=%d k=%d: %s", seed, k, v)
			}
		}
	}
}

// TestTheorem34FrugalInclusion is the executable Theorem 3.4: for k1 ≤ k2,
// every purged history generated under Θ_F,k1 is admissible under Θ_F,k2 —
// witnessed by the k2-Fork Coherence checker accepting it. The converse
// fails: some history generated under k2 > k1 exceeds the k1 bound, so the
// inclusion is strict in the sampled sets.
func TestTheorem34FrugalInclusion(t *testing.T) {
	ks := []int{1, 2, 4}
	for _, seed := range claimSeeds(99) {
		histories := map[int]ForkResult{}
		for _, k := range ks {
			histories[k] = ForkWorkload{K: k, Procs: 8, Rounds: 6, Seed: seed}.Run()
		}
		for i, k1 := range ks {
			for _, k2 := range ks[i:] {
				v := consistency.KForkCoherence(histories[k1].History, k2, consistency.Options{})
				if !v.Satisfied {
					t.Fatalf("seed=%d: history from k=%d rejected at k=%d: %s", seed, k1, k2, v)
				}
			}
		}
		// Strictness: the k=4 workload under 8-way contention forks
		// beyond 1.
		if v := consistency.KForkCoherence(histories[4].History, 1, consistency.Options{}); v.Satisfied {
			t.Fatalf("seed=%d: k=4 history unexpectedly admissible at k=1: no contention realized", seed)
		}
	}
}

// TestTheorem33ProdigalContainsFrugal is the executable Theorem 3.3:
// Ĥ(R(BT,Θ_F,k)) ⊆ Ĥ(R(BT,Θ_P)) — every frugal history passes the
// (vacuous) unbounded check, and the prodigal workload produces histories
// outside every finite-k class under sufficient contention.
func TestTheorem33ProdigalContainsFrugal(t *testing.T) {
	for _, seed := range claimSeeds(31) {
		frugal := ForkWorkload{K: 2, Procs: 8, Rounds: 6, Seed: seed}.Run()
		if v := consistency.KForkCoherence(frugal.History, 0, consistency.Options{}); !v.Satisfied {
			t.Fatalf("seed=%d: frugal history rejected by Θ_P class: %s", seed, v)
		}
		prodigal := ForkWorkload{K: oracle.Unbounded, Procs: 8, Rounds: 6, Seed: seed}.Run()
		if prodigal.MaxFanout <= 2 {
			t.Fatalf("seed=%d: prodigal workload insufficiently contended: fanout %d", seed, prodigal.MaxFanout)
		}
		if v := consistency.KForkCoherence(prodigal.History, 2, consistency.Options{}); v.Satisfied {
			t.Fatalf("seed=%d: prodigal history unexpectedly inside the k=2 class", seed)
		}
	}
}

// TestProdigalAcceptsAllContenders: under Θ_P every contender's append
// succeeds (Section 3.2: no upper bound on consumed tokens).
func TestProdigalAcceptsAllContenders(t *testing.T) {
	res := ForkWorkload{K: oracle.Unbounded, Procs: 5, Rounds: 4, Seed: 3}.Run()
	if res.SuccessfulAppends != 5*4 {
		t.Fatalf("successful = %d, want 20", res.SuccessfulAppends)
	}
	if res.MaxFanout != 5 {
		t.Fatalf("fanout = %d, want 5 (all contenders share each round's parent)", res.MaxFanout)
	}
}

// TestFrugalK1ExactlyOneWinnerPerRound: under Θ_F,1 each round commits
// exactly one block.
func TestFrugalK1ExactlyOneWinnerPerRound(t *testing.T) {
	res := ForkWorkload{K: 1, Procs: 6, Rounds: 7, Seed: 3}.Run()
	if res.SuccessfulAppends != 7 {
		t.Fatalf("successful = %d, want 7 (one per round)", res.SuccessfulAppends)
	}
	if res.MaxFanout != 1 {
		t.Fatalf("fanout = %d, want 1", res.MaxFanout)
	}
	// A k=1 fork workload is a single chain: the history satisfies SC.
	rep := consistency.CheckSC(res.History, consistency.Options{})
	if !rep.Satisfied() {
		t.Fatalf("k=1 workload violates SC:\n%s", rep)
	}
}

// TestCorollary341SCHistoriesSatisfyEC: every SC-satisfying sampled history
// also satisfies EC (Theorem 3.1 / Corollary 3.4.1).
func TestCorollary341SCHistoriesSatisfyEC(t *testing.T) {
	res := ForkWorkload{K: 1, Procs: 6, Rounds: 7, Seed: 13}.Run()
	if rep := consistency.CheckSC(res.History, consistency.Options{}); !rep.Satisfied() {
		t.Fatalf("precondition failed:\n%s", rep)
	}
	if rep := consistency.CheckEC(res.History, consistency.Options{}); !rep.Satisfied() {
		t.Fatalf("SC history violates EC:\n%s", rep)
	}
}

// TestProperty_FanoutMonotoneInK: across random seeds, the realized fanout
// is non-decreasing in k for the same contention pattern — the hierarchy of
// Figure 8 in sampled form.
func TestProperty_FanoutMonotoneInK(t *testing.T) {
	f := func(seed uint64) bool {
		f1 := ForkWorkload{K: 1, Procs: 6, Rounds: 4, Seed: seed}.Run().MaxFanout
		f2 := ForkWorkload{K: 2, Procs: 6, Rounds: 4, Seed: seed}.Run().MaxFanout
		f4 := ForkWorkload{K: 4, Procs: 6, Rounds: 4, Seed: seed}.Run().MaxFanout
		fp := ForkWorkload{K: oracle.Unbounded, Procs: 6, Rounds: 4, Seed: seed}.Run().MaxFanout
		return f1 <= f2 && f2 <= f4 && f4 <= fp && f1 == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
