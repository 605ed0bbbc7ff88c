package chains

import (
	"testing"

	"blockadt/internal/blocktree"
	"blockadt/internal/history"
	"blockadt/internal/netsim"
)

// TestDrainOutlastsJitterTails pins the drain-window bugfix: the harness
// must deliver every in-flight message before taking the final convergence
// reads. Under Jitter with an extreme TailFactor a straggler's delay
// (Delta × TailFactor = 32768 ticks here) dwarfs the old fixed drain
// window of 64 + 16·Delta ticks, so on the old code some replicas took
// their final read while block deliveries were still in flight and the
// reads disagreed — a harness artifact, not a property of the link model.
// With loss-free links and a full drain, every replica holds the same tree
// at the end, so the N final reads must be identical.
func TestDrainOutlastsJitterTails(t *testing.T) {
	const n = 6
	links := netsim.Jitter{
		Inner:      netsim.Synchronous{Delta: 8},
		TailProb:   0.3,
		TailFactor: 4096,
	}
	for seed := uint64(1); seed <= 5; seed++ {
		p := Params{N: n, TargetBlocks: 12, Delta: 8, Seed: seed}
		res := runPoWTopo("Bitcoin", Bitcoin.Refinement, blocktree.HeaviestChain{}, links, nil, p)
		if res.Blocks < p.TargetBlocks {
			t.Fatalf("seed %d: run ended with %d blocks, want ≥ %d", seed, res.Blocks, p.TargetBlocks)
		}
		reads := res.History.Reads()
		if len(reads) < n {
			t.Fatalf("seed %d: only %d reads recorded", seed, len(reads))
		}
		final := reads[len(reads)-n:]
		for i := 1; i < n; i++ {
			if !chainsEqual(final[0].Chain, final[i].Chain) {
				t.Errorf("seed %d: final reads diverged after drain:\n  p%d: %s\n  p%d: %s",
					seed, final[0].Op.Proc, final[0].Chain, final[i].Op.Proc, final[i].Chain)
			}
		}
	}
}

func chainsEqual(a, b history.Chain) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
