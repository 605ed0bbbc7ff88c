package chains

import (
	"testing"

	"blockadt/internal/blocktree"
)

// countingSelector counts every selection it answers for the wrapped
// selector.
type countingSelector struct {
	blocktree.Selector
	calls *int
}

func (c countingSelector) Select(t *blocktree.Tree) blocktree.Chain {
	*c.calls++
	return c.Selector.Select(t)
}

func (c countingSelector) SelectTip(t *blocktree.Tree) blocktree.Block {
	*c.calls++
	return blocktree.SelectTip(c.Selector, t)
}

// TestMinersSelectOnlyOnTokenCells: a miner draws its oracle cell before
// it selects, so a failed proof-of-work attempt makes no selector call.
// Under Θ_P every tkn cell becomes one recorded append, so the selections
// must number exactly the appends plus the reads (a miner selecting on
// every attempt makes about 1/TokenProb times more). The counted run must
// also match an uncounted one.
func TestMinersSelectOnlyOnTokenCells(t *testing.T) {
	p := Params{N: 6, TargetBlocks: 25, Seed: 5}
	for _, sel := range []blocktree.Selector{blocktree.HeaviestChain{}, blocktree.GHOST{}} {
		calls := 0
		counted, plainRow := Bitcoin, Bitcoin
		counted.Selector, plainRow.Selector = countingSelector{sel, &calls}, sel
		res := counted.Run(p)
		appends, reads := len(res.History.Appends()), len(res.History.Reads())
		if appends < p.TargetBlocks {
			t.Fatalf("%s: %d appends, want ≥ %d", sel.Name(), appends, p.TargetBlocks)
		}
		if calls != appends+reads {
			t.Fatalf("%s: %d selections, want %d appends + %d reads", sel.Name(), calls, appends, reads)
		}
		plain := plainRow.Run(p)
		if plain.Ticks != res.Ticks || plain.Delivered != res.Delivered || plain.History.Len() != res.History.Len() {
			t.Fatalf("%s: counted run differs from plain run", sel.Name())
		}
	}
}
