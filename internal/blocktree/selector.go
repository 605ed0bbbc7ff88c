package blocktree

// Selector is a selection function f ∈ F : BT → BC (Section 3.1): it picks
// the blockchain a read() returns from the tree. When bt = {b0}, every
// selector returns the chain {b0}. Selectors must be deterministic, so all
// provided selectors break ties lexicographically on block id — the
// tie-break the paper uses in its Figure 2 example.
//
// The selectors run on every successful mining attempt and every read, so
// they answer from what Tree maintains incrementally: the longest and
// heaviest tips are memos updated on Insert, and GHOST keeps the path of
// its last selection and re-descends only from where new blocks joined it.
// Apart from that re-descent, a tip selection is one lock acquisition and
// O(1) work; Select adds a single chain materialization.
type Selector interface {
	// Select returns the chosen chain {b0}⌢f(bt).
	Select(t *Tree) Chain
	// Name identifies the selector in reports and tables.
	Name() string
}

// TipSelector is an optional Selector extension for selectors that can
// name their chosen chain's tip without materializing the chain. Miners
// select on every granted token but only extend the tip, and reads record
// only ids, so the fast path spares both a chain allocation.
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

// Select implements Selector.
func (LongestChain) Select(t *Tree) Chain {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.chainToLocked(t.longest)
}

// SelectTip implements TipSelector.
func (LongestChain) SelectTip(t *Tree) Block {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nodes[t.longest].block
}

// HeaviestChain selects the chain whose cumulative work is maximal ("the
// blockchain which has required the most computational work", Section 5.1),
// breaking ties by lexicographically largest tip id.
type HeaviestChain struct{}

// Name implements Selector.
func (HeaviestChain) Name() string { return "heaviest" }

// Select implements Selector.
func (HeaviestChain) Select(t *Tree) Chain {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.chainToLocked(t.heaviest)
}

// SelectTip implements TipSelector.
func (HeaviestChain) SelectTip(t *Tree) Block {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nodes[t.heaviest].block
}

// GHOST selects a chain by the Greedy Heaviest-Observed SubTree rule
// (Sompolinsky & Zohar), the selection function the paper attributes to
// Ethereum (Section 5.2): walk from the root, at each fork descending into
// the child whose subtree carries the most cumulative work, ties broken by
// lexicographically largest id.
type GHOST struct{}

// Name implements Selector.
func (GHOST) Name() string { return "ghost" }

// Select implements Selector. A current path is answered under the read
// lock; otherwise the write lock is taken to fold pending subtree work and
// descend from the path's valid prefix, reading the sorted children slices
// and subtree weights in place.
func (GHOST) Select(t *Tree) Chain {
	t.mu.RLock()
	if !t.ghostStale {
		defer t.mu.RUnlock()
		return t.chainToLocked(t.ghostPath[len(t.ghostPath)-1])
	}
	t.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.chainToLocked(ghostTipLocked(t))
}

// SelectTip implements TipSelector.
func (GHOST) SelectTip(t *Tree) Block {
	t.mu.RLock()
	if !t.ghostStale {
		defer t.mu.RUnlock()
		return t.nodes[t.ghostPath[len(t.ghostPath)-1]].block
	}
	t.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nodes[ghostTipLocked(t)].block
}

// ownedTip returns the slab index of the tip a built-in selector
// chooses, folding a stale GHOST path first; ok is false for any other
// Selector. It takes no lock: the caller holds the write lock or owns the
// tree, as a SeqBlockTree does.
func ownedTip(sel Selector, t *Tree) (tip int32, ok bool) {
	switch sel.(type) {
	case LongestChain, SingleChain:
		return t.longest, true
	case HeaviestChain:
		return t.heaviest, true
	case GHOST:
		return ghostTipLocked(t), true
	}
	return 0, false
}

// ghostTipLocked returns the GHOST tip's slab index. A stale path is
// folded, which truncates it to the choices that still stand, and then
// extended by a descent over the folded sums from its end. Caller holds
// the write lock or owns the tree.
func ghostTipLocked(t *Tree) int32 {
	if t.ghostStale {
		t.foldLocked()
		cur := t.ghostPath[len(t.ghostPath)-1]
		for kids := t.nodes[cur].children; len(kids) > 0; kids = t.nodes[cur].children {
			best, bestW := kids[0], t.nodes[kids[0]].subtree
			for _, k := range kids[1:] {
				if w := t.nodes[k].subtree; w > bestW || (w == bestW && t.nodes[k].block.ID > t.nodes[best].block.ID) {
					best, bestW = k, w
				}
			}
			cur = best
			t.ghostPath = append(t.ghostPath, cur)
		}
		t.ghostStale = false
	}
	return t.ghostPath[len(t.ghostPath)-1]
}

// SingleChain is the trivial projection BT ↦→ BC for trees that contain a
// unique chain by construction (Red Belly, Section 5.6; Hyperledger,
// Section 5.7). Such a tree's unique leaf is its longest tip, so it selects
// by the longest-chain rule, which also gives misbehaving runs — where,
// contrary to the construction, a fork exists — a well-defined read.
type SingleChain struct{}

// Name implements Selector.
func (SingleChain) Name() string { return "single" }

// Select implements Selector.
func (SingleChain) Select(t *Tree) Chain { return LongestChain{}.Select(t) }

// SelectTip implements TipSelector.
func (SingleChain) SelectTip(t *Tree) Block { return LongestChain{}.SelectTip(t) }
