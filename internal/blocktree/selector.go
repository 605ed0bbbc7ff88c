package blocktree

// Selector is a selection function f ∈ F : BT → BC (Section 3.1): it picks
// the blockchain a read() returns from the tree. When bt = {b0}, every
// selector returns the chain {b0}. Selectors must be deterministic, so all
// provided selectors break ties lexicographically on block id — the
// tie-break the paper uses in its Figure 2 example.
//
// The selectors run on every mine and every read, so they lean on the
// structures Tree maintains incrementally (the sorted leaf set, the
// per-block chain work, and for GHOST the lazily folded subtree work and
// the memoized tip): one lock acquisition, one scan, and a single chain
// materialization per call.
type Selector interface {
	// Select returns the chosen chain {b0}⌢f(bt).
	Select(t *Tree) Chain
	// Name identifies the selector in reports and tables.
	Name() string
}

// TipSelector is an optional Selector extension for selectors that can
// name their chosen chain's tip without materializing the chain. Miners
// select on every attempt but only extend the tip, so the fast path
// removes the dominant allocation of the mining loop.
type TipSelector interface {
	// SelectTip returns the tip block of the chain Select would return.
	SelectTip(t *Tree) Block
}

// SelectTip returns the tip of sel's chosen chain, using the selector's
// tip-only fast path when it has one and falling back to materializing
// the chain otherwise. Both paths choose the same block by construction.
func SelectTip(sel Selector, t *Tree) Block {
	if ts, ok := sel.(TipSelector); ok {
		return ts.SelectTip(t)
	}
	return sel.Select(t).Tip()
}

// LongestChain selects the chain of maximal length, breaking ties by
// lexicographically largest tip id. This is Bitcoin's abstract rule with the
// paper's Figure 2 tie-break.
type LongestChain struct{}

// Name implements Selector.
func (LongestChain) Name() string { return "longest" }

// Select implements Selector. A leaf's chain length is its height, so the
// scan compares the heights the tree already carries instead of
// materializing one chain per leaf.
func (LongestChain) Select(t *Tree) Chain {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.chainToLocked(longestTipLocked(t))
}

// SelectTip implements TipSelector.
func (LongestChain) SelectTip(t *Tree) Block {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nodes[longestTipLocked(t)].block
}

// longestTipLocked returns the slab index of the longest chain's tip (ties
// to the lexicographically largest leaf id). Caller holds the lock.
func longestTipLocked(t *Tree) int32 {
	bestLen, best := -1, int32(0)
	for _, leaf := range t.leaves {
		n := &t.nodes[leaf]
		if h := n.block.Height; h > bestLen || (h == bestLen && n.block.ID > t.nodes[best].block.ID) {
			bestLen, best = h, leaf
		}
	}
	return best
}

// HeaviestChain selects the chain whose cumulative work is maximal ("the
// blockchain which has required the most computational work", Section 5.1),
// breaking ties by lexicographically largest tip id.
type HeaviestChain struct{}

// Name implements Selector.
func (HeaviestChain) Name() string { return "heaviest" }

// Select implements Selector. The chain weight of a leaf is the root-path
// cumulative work Tree.Insert maintains, so the scan is O(#leaves) with a
// single chain materialization.
func (HeaviestChain) Select(t *Tree) Chain {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.chainToLocked(heaviestTipLocked(t))
}

// SelectTip implements TipSelector.
func (HeaviestChain) SelectTip(t *Tree) Block {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nodes[heaviestTipLocked(t)].block
}

// heaviestTipLocked returns the slab index of the heaviest chain's tip
// (ties to the lexicographically largest leaf id). Caller holds the lock.
func heaviestTipLocked(t *Tree) int32 {
	bestW, best := -1, int32(0)
	for _, leaf := range t.leaves {
		n := &t.nodes[leaf]
		if w := n.chainW; w > bestW || (w == bestW && n.block.ID > t.nodes[best].block.ID) {
			bestW, best = w, leaf
		}
	}
	return best
}

// GHOST selects a chain by the Greedy Heaviest-Observed SubTree rule
// (Sompolinsky & Zohar), the selection function the paper attributes to
// Ethereum (Section 5.2): walk from the root, at each fork descending into
// the child whose subtree carries the most cumulative work, ties broken by
// lexicographically largest id.
type GHOST struct{}

// Name implements Selector.
func (GHOST) Name() string { return "ghost" }

// Select implements Selector. A valid memo is answered under the read
// lock; otherwise the write lock is taken to fold pending subtree work and
// descend, reading the sorted children slices and subtree weights in
// place.
func (GHOST) Select(t *Tree) Chain {
	t.mu.RLock()
	if m := t.ghostTip; m > 0 {
		defer t.mu.RUnlock()
		return t.chainToLocked(m - 1)
	}
	t.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.chainToLocked(ghostTipLocked(t))
}

// SelectTip implements TipSelector.
func (GHOST) SelectTip(t *Tree) Block {
	t.mu.RLock()
	if m := t.ghostTip; m > 0 {
		defer t.mu.RUnlock()
		return t.nodes[m-1].block
	}
	t.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nodes[ghostTipLocked(t)].block
}

// ghostTipLocked returns the GHOST tip's slab index: the memoized one if
// another caller stored it meanwhile, else the result of a fresh descent
// over the folded sums, which it memoizes. Caller holds the write lock.
func ghostTipLocked(t *Tree) int32 {
	if m := t.ghostTip; m > 0 {
		return m - 1
	}
	t.foldLocked()
	cur := int32(0)
	for {
		kids := t.nodes[cur].children
		if len(kids) == 0 {
			t.ghostTip = cur + 1
			return cur
		}
		best, bestW := kids[0], t.nodes[kids[0]].subtree
		for _, k := range kids[1:] {
			if w := t.nodes[k].subtree; w > bestW || (w == bestW && t.nodes[k].block.ID > t.nodes[best].block.ID) {
				best, bestW = k, w
			}
		}
		cur = best
	}
}

// SingleChain is the trivial projection BT ↦→ BC for trees that contain a
// unique chain by construction (Red Belly, Section 5.6; Hyperledger,
// Section 5.7). It selects the unique leaf's chain and falls back to the
// longest-chain rule if — contrary to the construction — a fork exists, so
// that misbehaving runs still produce a well-defined read.
type SingleChain struct{}

// Name implements Selector.
func (SingleChain) Name() string { return "single" }

// Select implements Selector.
func (SingleChain) Select(t *Tree) Chain {
	t.mu.RLock()
	if len(t.leaves) == 1 {
		c := t.chainToLocked(t.leaves[0])
		t.mu.RUnlock()
		return c
	}
	t.mu.RUnlock()
	return LongestChain{}.Select(t)
}

// SelectTip implements TipSelector.
func (SingleChain) SelectTip(t *Tree) Block {
	t.mu.RLock()
	if len(t.leaves) == 1 {
		b := t.nodes[t.leaves[0]].block
		t.mu.RUnlock()
		return b
	}
	t.mu.RUnlock()
	return LongestChain{}.SelectTip(t)
}
