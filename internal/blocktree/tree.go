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
	// A first child is a one-slot window of the tree's kidChunk (cap 1,
	// so a second child reallocates instead of writing into the chunk).
	children []int32
	// subtree caches the cumulative work of the subtree rooted here (for
	// GHOST). Once Tree.foldLocked has run it is exact for every block off
	// the GHOST path; a path block at height h is owed, on top of it, the
	// lazy adds Tree.pathAdd holds at heights h and above. Until the fold
	// it also omits the work of blocks inserted since the last fold.
	subtree int
	// chainW caches the cumulative work of the root path ending here (the
	// heaviest-chain score of ChainTo), set once on insert.
	chainW int
}

// Tree is the BlockTree bt = (V_bt, E_bt): an append-only directed rooted
// tree whose edges point backward to the genesis block. Tree's exported
// methods are safe for concurrent use; a SeqBlockTree reaches its own tree
// without the lock, so a tree it owns is for its goroutine alone.
//
// The tree is the read hot path of every simulator (selectors run on every
// successful mining attempt and every read), so the structures the
// selectors need are maintained incrementally on Insert instead of being
// rebuilt per read: children slices stay sorted, the fork census is a
// counter, each block's cumulative chain work is carried forward, and the
// longest and heaviest tips are memos updated with one comparison each —
// Insert pays O(k) for a block with k siblings and allocates nothing for a
// first child, and the longest and heaviest selections are O(1). Subtree
// work, which only GHOST reads, is folded in lazily: the first GHOST
// descent or SubtreeWork call after a run of inserts adds the pending
// blocks' work to their ancestors, so trees under the other selectors
// never walk at all. GHOST keeps the root path of its last selection;
// inserts on its end extend it, and after any other insert the next
// selection re-descends only from the lowest height where a new block
// joins the path. The fold stops each pending block's walk at the first
// ancestor on that path and records the work there once, in pathAdd, for
// every path block at or below that height; so a fold costs the off-path
// branches plus the part of the path it truncates, not the height. The
// only hash lookups are the id→index translations at the API boundary;
// everything below it runs on slab indexes.
type Tree struct {
	mu    sync.RWMutex
	nodes []node
	index map[BlockID]int32
	// forkCount counts blocks with more than one child.
	forkCount int
	maxFanout int
	// longest and heaviest are the slab indexes of the blocks maximal by
	// (height, id) and by (chain work, id). A block's height and chain work
	// exceed its parent's (work is at least 1), so the maximal block has no
	// children: it is the longest (heaviest) chain's tip.
	longest, heaviest int32
	// folded counts the slab entries whose work is already included in
	// their ancestors' subtree sums; entries from folded on are pending.
	folded int32
	// ghostPath is the root path of the last GHOST selection, indexed by
	// height. While ghostStale is false its end is the GHOST tip; an insert
	// on the end extends it, any other insert sets ghostStale. foldLocked
	// truncates a stale path at the lowest height where a newly folded
	// off-path block joins it, and the next selection descends from the
	// truncated end. Readers load both under the read lock; they are
	// stored only under the write lock.
	ghostPath  []int32
	ghostStale bool
	// pathAdd[h] is folded work owed to every ghostPath block at height
	// ≤ h: a path block's subtree sum is its subtree field plus
	// pathAdd[h:]. It is never longer than ghostPath; missing entries are
	// zero. A fold that truncates the path pays the dropped blocks what
	// they are owed and carries the dropped entries' total to the new end,
	// so every block off the path holds its exact sum.
	pathAdd []int
	// kidChunk is the chunk first-child windows are cut from.
	kidChunk []int32
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
	// ErrRejected reports a block the validity predicate P refuses
	// (SeqBlockTree.Update).
	ErrRejected = errors.New("blocktree: block fails the validity predicate")
)

// New returns a tree containing only the genesis block b0.
func New() *Tree { return NewCap(0) }

// treePool holds released trees (Tree.Release) for NewCap to reuse: each
// entry is a fresh header over a released tree's node slab, emptied id
// index, GHOST path and first-child chunk. A pool, not a fixed slot: a
// run releases one tree per replica, and parallel runners release
// several runs' trees at once.
var treePool sync.Pool // of *Tree

// NewCap returns a tree containing only the genesis block, with the block
// slab, id index and first-child chunk pre-sized for about n blocks so
// simulators with a known target chain length avoid incremental growth on
// the insert path. A positive hint first takes a released tree from the
// pool (Release): its slab is reused when it holds n+1 blocks, its GHOST
// path and child chunk when they are large enough, and a slab too small
// for n is dropped. A zero hint (New) never draws from the pool, so a
// small tree never pins a large slab.
func NewCap(n int) *Tree {
	if n > 0 {
		if t, _ := treePool.Get().(*Tree); t != nil && cap(t.nodes) > n {
			if cap(t.ghostPath) <= n {
				t.ghostPath = make([]int32, 0, n+1)
			}
			if cap(t.kidChunk) < n {
				t.kidChunk = make([]int32, 0, n)
			}
			t.plant()
			return t
		}
	}
	n = max(n, 1)
	t := &Tree{
		nodes:     make([]node, 0, n+1),
		index:     make(map[BlockID]int32, n+1),
		ghostPath: make([]int32, 0, n+1),
		kidChunk:  make([]int32, 0, n),
	}
	t.plant()
	return t
}

// plant makes the empty buffers of a new or recycled tree the tree
// holding only the genesis block. A recycled slab keeps the previous
// tree's nodes past its length; every later insert overwrites its slot
// whole.
func (t *Tree) plant() {
	t.nodes = append(t.nodes[:0], node{block: Genesis(), parent: -1})
	t.index[GenesisID] = 0
	t.folded = 1
	t.ghostPath = append(t.ghostPath[:0], 0)
	t.pathAdd = t.pathAdd[:0]
	t.kidChunk = t.kidChunk[:0]
}

// Release hands the tree's buffers to the next NewCap with a positive
// hint: the node slab, the id index (cleared here), the GHOST path and
// the first-child chunk. It is the end of the tree's life. Only the
// network that built a replica may call it on the replica's tree, after
// its last read of the tree, and nothing may touch the tree afterwards:
// the next tree overwrites the same memory. The released tree itself is
// left empty, so a stray use panics instead of reading another run's
// blocks. What the tree returned before — blocks, chains, children, and
// SeqBlockTree.ReadIDs views — are copies and stay valid.
func (t *Tree) Release() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nodes == nil {
		return
	}
	clear(t.index)
	treePool.Put(&Tree{nodes: t.nodes, index: t.index, ghostPath: t.ghostPath, pathAdd: t.pathAdd, kidChunk: t.kidChunk})
	t.nodes, t.index, t.ghostPath, t.pathAdd, t.kidChunk = nil, nil, nil, nil, nil
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
	t.insertLocked(&b, pi)
	return nil
}

// attach is Insert for update_i(bg, b) (SeqBlockTree.Update), chaining
// *b to parent whatever b.Parent says. It takes no lock: the
// SeqBlockTree owns its tree, and no other goroutine may use the tree
// meanwhile. It checks the parent first and reports an absent one as the
// bare ErrUnknownParent, so a replica learns in one call, without an
// allocation, whether to buffer a delivery. A block naming itself as
// parent is either a duplicate or waits on an unknown parent, never
// inserted. *b is only read: the one copy of the block is the tree's.
func (t *Tree) attach(parent BlockID, b *Block) error {
	pi, ok := t.index[parent]
	if !ok {
		return ErrUnknownParent
	}
	if _, dup := t.index[b.ID]; dup {
		return ErrDuplicate
	}
	t.insertLocked(b, pi)
	return nil
}

// insertLocked appends a copy of *b as a child of slab entry pi, setting
// the copy's Parent and Height from the parent; *b itself is not written.
// Caller holds the write lock, or owns the tree, and has checked that b is
// new.
func (t *Tree) insertLocked(b *Block, pi int32) {
	idx := int32(len(t.nodes))
	// Grow and fill the slot in place: appending a node literal would
	// build it in a temporary and copy the block twice. Every field is
	// written, since a recycled slab holds an old node here.
	t.nodes = slices.Grow(t.nodes, 1)[:idx+1]
	nd := &t.nodes[idx]
	nd.block = *b
	nb := &nd.block
	nb.Parent = t.nodes[pi].block.ID
	nb.Height = t.nodes[pi].block.Height + 1
	w := nb.work()
	cw := t.nodes[pi].chainW + w
	nd.parent, nd.children, nd.subtree, nd.chainW = pi, nil, w, cw
	if l := &t.nodes[t.longest].block; nb.Height > l.Height || (nb.Height == l.Height && nb.ID > l.ID) {
		t.longest = idx
	}
	if h := &t.nodes[t.heaviest]; cw > h.chainW || (cw == h.chainW && nb.ID > h.block.ID) {
		t.heaviest = idx
	}
	t.index[nb.ID] = idx
	// A block on the GHOST tip is the tip's only child, and every subtree
	// on the tip's path only gains work, so each fork's choice stands and
	// the new block is the new tip. Any other insert may move the
	// selection.
	if !t.ghostStale && t.ghostPath[len(t.ghostPath)-1] == pi {
		t.ghostPath = append(t.ghostPath, idx)
	} else {
		t.ghostStale = true
	}

	// Keep the children slice sorted at insert time so reads never sort:
	// selectors walk them in deterministic order directly.
	kids := t.nodes[pi].children
	if len(kids) == 0 {
		if len(t.kidChunk) == cap(t.kidChunk) {
			t.kidChunk = make([]int32, 0, max(64, len(t.nodes)))
		}
		t.kidChunk = append(t.kidChunk, idx)
		n := len(t.kidChunk)
		kids = t.kidChunk[n-1 : n : n]
	} else {
		pos := sort.Search(len(kids), func(i int) bool { return t.nodes[kids[i]].block.ID >= nb.ID })
		kids = append(kids, 0)
		copy(kids[pos+1:], kids[pos:])
		kids[pos] = idx
	}
	t.nodes[pi].children = kids
	if len(kids) == 2 {
		t.forkCount++
	}
	if len(kids) > t.maxFanout {
		t.maxFanout = len(kids)
	}
}

// foldLocked adds the work of every block inserted since the last fold to
// its ancestors' subtree sums. A parent always precedes its children in
// the slab, so one pass from the newest pending block down finishes each
// pending block's sum before carrying it into its parent. A sum that
// reaches an already folded parent walks on only to the first ancestor on
// the GHOST path and is added there to pathAdd, once for the whole path
// below; the walk costs the length of the off-path branch, not the height.
//
// The same pass finds, for each pending block off the GHOST path, the
// height where its ancestors join the path, and truncates the path above
// the lowest such height: below it, every fork's chosen child is an
// ancestor of the new blocks and only gained work, so those choices stand.
// The truncation pays each dropped path block the pathAdd entries at and
// above its height and carries their total to the new end, so the
// descent that follows compares only exact sums. Caller holds the write
// lock or owns the tree.
func (t *Tree) foldLocked() {
	n := int32(len(t.nodes))
	top := len(t.ghostPath)
	if grow := top - len(t.pathAdd); grow > 0 {
		t.pathAdd = append(t.pathAdd, make([]int, grow)...)
	}
	join := top - 1
	onPath := func(i int32) bool {
		h := t.nodes[i].block.Height
		return h < top && t.ghostPath[h] == i
	}
	for i := n - 1; i >= t.folded; i-- {
		s, p := t.nodes[i].subtree, t.nodes[i].parent
		// A pending off-path block whose parent is pending and off the
		// path joins where its parent does; the parent's step records it.
		off := !onPath(i)
		if p >= t.folded {
			t.nodes[p].subtree += s
			if off && onPath(p) {
				join = min(join, t.nodes[p].block.Height)
			}
			continue
		}
		for !onPath(p) {
			t.nodes[p].subtree += s
			p = t.nodes[p].parent
		}
		h := t.nodes[p].block.Height
		t.pathAdd[h] += s
		if off {
			join = min(join, h)
		}
	}
	t.folded = n
	owed := 0
	for h := top - 1; h > join; h-- {
		owed += t.pathAdd[h]
		t.pathAdd[h] = 0
		t.nodes[t.ghostPath[h]].subtree += owed
	}
	t.pathAdd[join] += owed
	t.ghostPath = t.ghostPath[:join+1]
	t.pathAdd = t.pathAdd[:join+1]
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

// appendSelectedIDs returns buf extended to the ids of the root path of
// sel's chosen chain, the id-only view read responses are recorded with
// (appendRootPathIDsLocked, which takes fresh buffers from chainBuf). It
// takes no lock for a built-in selector, which names its tip by slab
// index (ownedTip): the SeqBlockTree owns its tree. Any other Selector
// goes through SelectTip, which locks, and the id index.
func (t *Tree) appendSelectedIDs(buf history.Chain, sel Selector, chainBuf func(int) history.Chain) history.Chain {
	tip, ok := ownedTip(sel, t)
	if !ok {
		if tip, ok = t.index[SelectTip(sel, t).ID]; !ok {
			return history.Chain{GenesisID}
		}
	}
	return t.appendRootPathIDsLocked(buf, tip, chainBuf)
}

// appendRootPathIDsLocked returns buf extended to the ids of the root path
// ending at slab index tip. The walk stops at the highest block buf
// already holds at its height — the tree is append-only, so a block's root
// path never changes — and only the ids above it are written. Positions
// below len(buf) are never written: when the path leaves buf before its
// end (a reorg, or a tip that is an ancestor of buf's), or outgrows buf's
// capacity, the kept prefix is copied into a fresh buffer with room for
// the n ids plus max(64, n/4), which chainBuf hands out (make when it is
// nil). Views of buf taken earlier therefore never change. Caller holds
// the lock or owns the tree.
func (t *Tree) appendRootPathIDsLocked(buf history.Chain, tip int32, chainBuf func(int) history.Chain) history.Chain {
	keep := 0
	for i := tip; i >= 0; i = t.nodes[i].parent {
		if h := t.nodes[i].block.Height; h < len(buf) && buf[h] == t.nodes[i].block.ID {
			keep = h + 1
			break
		}
	}
	n := t.nodes[tip].block.Height + 1
	if keep < len(buf) || n > cap(buf) {
		var fresh history.Chain
		if room := n + max(64, n/4); chainBuf != nil {
			fresh = chainBuf(room)
		} else {
			fresh = make(history.Chain, 0, room)
		}
		buf = append(fresh, buf[:keep]...)
	}
	buf = buf[:n]
	for i := tip; i >= 0 && t.nodes[i].block.Height >= keep; i = t.nodes[i].parent {
		buf[t.nodes[i].block.Height] = t.nodes[i].block.ID
	}
	return buf
}

// Leaves returns the ids of the blocks with no children, sorted
// lexicographically. No selector needs the leaf set, so it is derived on
// demand.
func (t *Tree) Leaves() []BlockID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []BlockID
	for i := range t.nodes {
		if len(t.nodes[i].children) == 0 {
			out = append(out, t.nodes[i].block.ID)
		}
	}
	slices.Sort(out)
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
// of the longest chain, read off the longest-tip memo so progress checks
// need not materialize a chain.
func (t *Tree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nodes[t.longest].block.Height
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
	w := t.nodes[i].subtree
	if h := t.nodes[i].block.Height; h < len(t.ghostPath) && t.ghostPath[h] == i {
		for _, a := range t.pathAdd[h:] {
			w += a
		}
	}
	return w
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
		nodes:      make([]node, len(t.nodes)),
		index:      make(map[BlockID]int32, len(t.index)),
		forkCount:  t.forkCount,
		maxFanout:  t.maxFanout,
		longest:    t.longest,
		heaviest:   t.heaviest,
		folded:     t.folded,
		ghostPath:  append(make([]int32, 0, cap(t.ghostPath)), t.ghostPath...),
		ghostStale: t.ghostStale,
		pathAdd:    slices.Clone(t.pathAdd),
	}
	copy(c.nodes, t.nodes)
	// Every block but genesis is one child, so one buffer holds all the
	// children slices; each is capped at its length, so an insert into the
	// clone reallocates instead of writing into its neighbour.
	kids := make([]int32, 0, len(t.nodes)-1)
	for i := range c.nodes {
		if n := len(c.nodes[i].children); n > 0 {
			kids = append(kids, c.nodes[i].children...)
			c.nodes[i].children = kids[len(kids)-n : len(kids) : len(kids)]
		}
	}
	for id, i := range t.index {
		c.index[id] = i
	}
	return c
}
