package blocktree

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"blockadt/internal/history"
)

// node is the slab entry for one block. Blocks are stored in a flat slice
// in insertion order and refer to each other by index: parent walks and
// subtree-work propagation touch no hash table, and the per-block caches
// (root-path work, subtree work, children) live next to the block instead
// of in separate string-keyed maps.
type node struct {
	block  Block
	parent int32 // slab index of the parent; -1 for genesis
	// children holds the slab indexes of the blocks chained to this one,
	// sorted by block id so selectors walk them in deterministic order.
	children []int32
	// subtree caches the cumulative work of the subtree rooted here (for
	// GHOST). It is exact for every block once Tree.foldLocked has run;
	// until then it omits the work of blocks inserted since the last fold.
	subtree int
	// chainW caches the cumulative work of the root path ending here (the
	// heaviest-chain score of ChainTo), set once on insert.
	chainW int
}

// Tree is the BlockTree bt = (V_bt, E_bt): an append-only directed rooted
// tree whose edges point backward to the genesis block. Tree is safe for
// concurrent use.
//
// The tree is the read hot path of every simulator (selectors run on every
// mine and read), so the structures the selectors need are maintained
// incrementally on Insert instead of being rebuilt per read: children
// slices stay sorted, the leaf set and fork census are updated in place,
// and each block's cumulative chain work is carried forward — Insert pays
// O(k) for a block with k siblings plus a sorted insert into the leaf set,
// and reads pay no sorting at all. Subtree work, which only GHOST reads,
// is folded in lazily: the first GHOST descent or SubtreeWork call after
// a run of inserts adds the pending blocks' work to their ancestors, so
// trees under the other selectors never walk to the root. The GHOST tip
// is memoized and follows inserts that extend it, so a GHOST selection is
// O(1) unless a block landed off the tip since the last one. The only
// hash lookups are the id→index translations at the API boundary;
// everything below it runs on slab indexes.
type Tree struct {
	mu    sync.RWMutex
	nodes []node
	index map[BlockID]int32
	// leaves is the set of blocks with no children, sorted by block id,
	// maintained incrementally: append-only trees only ever grow a leaf
	// set by removing the parent and inserting the new block.
	leaves []int32
	// forkCount counts blocks with more than one child.
	forkCount int
	maxFanout int
	maxHeight int
	// folded counts the slab entries whose work is already included in
	// their ancestors' subtree sums; entries from folded on are pending.
	folded int32
	// ghostTip memoizes the GHOST selection: the tip's slab index plus
	// one, 0 when not yet computed. Readers load it under the read lock;
	// it is stored only under the write lock.
	ghostTip int32
}

// Errors returned by Tree operations.
var (
	// ErrUnknownParent reports an attempt to attach a block to an absent
	// predecessor.
	ErrUnknownParent = errors.New("blocktree: unknown parent block")
	// ErrDuplicate reports an attempt to insert an already-present block.
	ErrDuplicate = errors.New("blocktree: duplicate block")
	// ErrSelfParent reports a block naming itself as predecessor.
	ErrSelfParent = errors.New("blocktree: block cannot be its own parent")
)

// New returns a tree containing only the genesis block b0.
func New() *Tree { return NewCap(0) }

// NewCap returns a tree containing only the genesis block, with the block
// slab and id index pre-sized for about n blocks so simulators with a known
// target chain length avoid incremental growth on the insert path.
func NewCap(n int) *Tree {
	if n < 1 {
		n = 1
	}
	t := &Tree{
		nodes:  make([]node, 1, n+1),
		index:  make(map[BlockID]int32, n+1),
		leaves: []int32{0},
		folded: 1,
	}
	t.nodes[0] = node{block: Genesis(), parent: -1}
	t.index[GenesisID] = 0
	return t
}

// Insert attaches b to its parent. The block's Height is derived from the
// parent regardless of the incoming value. Insert never removes or mutates
// existing vertices: the BlockTree is append-only.
func (t *Tree) Insert(b Block) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b.ID == b.Parent {
		return ErrSelfParent
	}
	if _, dup := t.index[b.ID]; dup {
		return ErrDuplicate
	}
	pi, ok := t.index[b.Parent]
	if !ok {
		return fmt.Errorf("%w: %s for block %s", ErrUnknownParent, string(b.Parent), string(b.ID))
	}
	b.Height = t.nodes[pi].block.Height + 1
	w := b.work()
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{
		block:   b,
		parent:  pi,
		subtree: w,
		chainW:  t.nodes[pi].chainW + w,
	})
	t.index[b.ID] = idx
	// A block on the memoized GHOST tip is the tip's only child, and every
	// subtree on the tip's path only gains work, so each fork's choice
	// stands and the new block is the new tip. Any other insert may move
	// the selection.
	if t.ghostTip == pi+1 {
		t.ghostTip = idx + 1
	} else {
		t.ghostTip = 0
	}
	if b.Height > t.maxHeight {
		t.maxHeight = b.Height
	}

	// Keep the children slice sorted at insert time so reads never sort:
	// selectors walk them in deterministic order directly.
	kids := t.nodes[pi].children
	pos := sort.Search(len(kids), func(i int) bool { return t.nodes[kids[i]].block.ID >= b.ID })
	kids = append(kids, 0)
	copy(kids[pos+1:], kids[pos:])
	kids[pos] = idx
	t.nodes[pi].children = kids
	if len(kids) == 2 {
		t.forkCount++
	}
	if len(kids) > t.maxFanout {
		t.maxFanout = len(kids)
	}

	// Leaf set update: the parent (if it was a leaf) stops being one, the
	// new block becomes one. Both edits keep the slice sorted.
	if len(kids) == 1 {
		t.removeLeaf(pi)
	}
	t.addLeaf(idx)
	return nil
}

// foldLocked adds the work of every block inserted since the last fold to
// its ancestors' subtree sums. A parent always precedes its children in
// the slab, so one pass from the newest pending block down finishes each
// pending block's sum before carrying it into its parent; only a sum that
// reaches an already folded parent walks on to the root, once per pending
// block hanging off the folded part of the tree rather than once per
// block. Caller holds the write lock.
func (t *Tree) foldLocked() {
	n := int32(len(t.nodes))
	for i := n - 1; i >= t.folded; i-- {
		s, p := t.nodes[i].subtree, t.nodes[i].parent
		if p >= t.folded {
			t.nodes[p].subtree += s
			continue
		}
		for ; p >= 0; p = t.nodes[p].parent {
			t.nodes[p].subtree += s
		}
	}
	t.folded = n
}

// addLeaf inserts idx into the leaf slice, keeping it sorted by block id.
func (t *Tree) addLeaf(idx int32) {
	id := t.nodes[idx].block.ID
	pos := sort.Search(len(t.leaves), func(i int) bool { return t.nodes[t.leaves[i]].block.ID >= id })
	t.leaves = append(t.leaves, 0)
	copy(t.leaves[pos+1:], t.leaves[pos:])
	t.leaves[pos] = idx
}

// removeLeaf deletes idx from the sorted leaf slice if present.
func (t *Tree) removeLeaf(idx int32) {
	id := t.nodes[idx].block.ID
	pos := sort.Search(len(t.leaves), func(i int) bool { return t.nodes[t.leaves[i]].block.ID >= id })
	if pos < len(t.leaves) && t.leaves[pos] == idx {
		copy(t.leaves[pos:], t.leaves[pos+1:])
		t.leaves = t.leaves[:len(t.leaves)-1]
	}
}

// Has reports whether the tree contains the block.
func (t *Tree) Has(id BlockID) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.index[id]
	return ok
}

// Get returns the block with the given id.
func (t *Tree) Get(id BlockID) (Block, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	i, ok := t.index[id]
	if !ok {
		return Block{}, false
	}
	return t.nodes[i].block, true
}

// Size returns the number of blocks including genesis.
func (t *Tree) Size() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.nodes)
}

// Children returns the ids of the blocks chained to id, sorted
// lexicographically (a deterministic order the selectors rely on). The
// slice is sorted at insert time, so this is a plain copy.
func (t *Tree) Children(id BlockID) []BlockID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	i, ok := t.index[id]
	if !ok {
		return nil
	}
	kids := t.nodes[i].children
	out := make([]BlockID, len(kids))
	for j, k := range kids {
		out[j] = t.nodes[k].block.ID
	}
	return out
}

// ChainTo returns the path {b0}⌢…⌢{id}.
func (t *Tree) ChainTo(id BlockID) (Chain, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	i, ok := t.index[id]
	if !ok {
		return nil, false
	}
	return t.chainToLocked(i), true
}

// chainToLocked materializes the root path ending at slab index idx.
// Caller holds the lock.
func (t *Tree) chainToLocked(idx int32) Chain {
	chain := make(Chain, t.nodes[idx].block.Height+1)
	for i := idx; i >= 0; i = t.nodes[i].parent {
		chain[t.nodes[i].block.Height] = t.nodes[i].block
	}
	return chain
}

// appendRootPathIDs returns buf extended to the ids of the root path
// {b0}⌢…⌢{id}, the id-only view read responses are recorded with. The
// walk stops at the highest block buf already holds at its height — the
// tree is append-only, so a block's root path never changes — and only
// the ids above it are written. Positions below len(buf) are never
// written: when the path leaves buf before its end (a reorg, or a tip
// that is an ancestor of buf's), the shared prefix is copied into a fresh
// buffer instead. Views of buf taken earlier therefore never change.
func (t *Tree) appendRootPathIDs(buf history.Chain, id BlockID) history.Chain {
	t.mu.RLock()
	defer t.mu.RUnlock()
	tip, ok := t.index[id]
	if !ok {
		return history.Chain{GenesisID}
	}
	keep := 0
	for i := tip; i >= 0; i = t.nodes[i].parent {
		if h := t.nodes[i].block.Height; h < len(buf) && buf[h] == t.nodes[i].block.ID {
			keep = h + 1
			break
		}
	}
	n := t.nodes[tip].block.Height + 1
	if keep < len(buf) {
		fresh := make(history.Chain, keep, max(cap(buf), n))
		copy(fresh, buf)
		buf = fresh
	}
	buf = slices.Grow(buf, n-len(buf))[:n]
	for i := tip; i >= 0 && t.nodes[i].block.Height >= keep; i = t.nodes[i].parent {
		buf[t.nodes[i].block.Height] = t.nodes[i].block.ID
	}
	return buf
}

// Leaves returns the ids of the blocks with no children, sorted
// lexicographically. The set is maintained incrementally on Insert, so
// this is a plain copy.
func (t *Tree) Leaves() []BlockID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]BlockID, len(t.leaves))
	for i, idx := range t.leaves {
		out[i] = t.nodes[idx].block.ID
	}
	return out
}

// ForkCount returns, for each block with more than one child, the number of
// branches departing from it. It is the per-block fork census used by the
// k-Fork Coherence experiments (Definition 3.9). It is assembled on demand
// — the hot paths use Forks, which is a counter.
func (t *Tree) ForkCount() map[BlockID]int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[BlockID]int, t.forkCount)
	for i := range t.nodes {
		if n := len(t.nodes[i].children); n > 1 {
			out[t.nodes[i].block.ID] = n
		}
	}
	return out
}

// Forks returns the number of blocks with more than one child — the size
// of the ForkCount census without materializing it.
func (t *Tree) Forks() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.forkCount
}

// Height returns the maximal block height — the length (excluding genesis)
// of the longest chain, maintained on Insert so progress checks need not
// materialize a chain.
func (t *Tree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.maxHeight
}

// MaxFanout returns the maximum number of children of any block: the
// realized fork bound of the tree.
func (t *Tree) MaxFanout() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.maxFanout
}

// SubtreeWork returns the cumulative work of the subtree rooted at id
// (excluding genesis's own zero work), used by the GHOST selector. It
// folds pending work first, so it takes the write lock.
func (t *Tree) SubtreeWork(id BlockID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.index[id]
	if !ok {
		return 0
	}
	t.foldLocked()
	return t.nodes[i].subtree
}

// ChainWork returns the cumulative work of the root path ending at id —
// the heaviest-chain score of ChainTo(id) — maintained on Insert.
func (t *Tree) ChainWork(id BlockID) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	i, ok := t.index[id]
	if !ok {
		return 0
	}
	return t.nodes[i].chainW
}

// Clone returns a deep, independent copy of the tree.
func (t *Tree) Clone() *Tree {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c := &Tree{
		nodes:     make([]node, len(t.nodes)),
		index:     make(map[BlockID]int32, len(t.index)),
		leaves:    make([]int32, len(t.leaves)),
		forkCount: t.forkCount,
		maxFanout: t.maxFanout,
		maxHeight: t.maxHeight,
		folded:    t.folded,
	}
	copy(c.nodes, t.nodes)
	for i := range c.nodes {
		if kids := c.nodes[i].children; kids != nil {
			cp := make([]int32, len(kids))
			copy(cp, kids)
			c.nodes[i].children = cp
		}
	}
	for id, i := range t.index {
		c.index[id] = i
	}
	copy(c.leaves, t.leaves)
	return c
}
