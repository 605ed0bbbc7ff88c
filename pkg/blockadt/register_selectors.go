package blockadt

import "blockadt/internal/blocktree"

// heaviestChain reports whether a Table 1 row selects by the heaviest-chain
// rule, the narrowing of the selfish adversary and of clustered2.
func heaviestChain(system SimSystem) bool {
	_, ok := system.Selector.(blocktree.HeaviestChain)
	return ok
}

// The four selection functions f : BT → BC self-register.
func init() {
	RegisterSelector(SelectorSpec{
		Name:        "longest",
		Description: "maximal-length chain, ties broken by lexicographically largest tip (Figure 2)",
		New:         func() Selector { return blocktree.LongestChain{} },
	})
	RegisterSelector(SelectorSpec{
		Name:        "heaviest",
		Description: "maximal cumulative work — Bitcoin's rule (Section 5.1)",
		New:         func() Selector { return blocktree.HeaviestChain{} },
	})
	RegisterSelector(SelectorSpec{
		Name:        "ghost",
		Description: "Greedy Heaviest-Observed SubTree descent — Ethereum's rule (Section 5.2)",
		New:         func() Selector { return blocktree.GHOST{} },
	})
	RegisterSelector(SelectorSpec{
		Name:        "single",
		Description: "unique-chain projection for fork-free trees (Red Belly, Hyperledger)",
		New:         func() Selector { return blocktree.SingleChain{} },
	})
}
