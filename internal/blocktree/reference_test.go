package blocktree

import (
	"fmt"
	"slices"
	"testing"

	"blockadt/internal/prng"
)

// refTree is a brute-force model of a Tree: it records only each block's
// parent and selector weight, and every query recomputes its answer from
// scratch. The longest and heaviest tips are the leaf scans the selectors
// ran before they kept memos, and the GHOST tip is a descent from genesis
// over freshly summed subtree work.
type refTree struct {
	ids    []BlockID
	parent map[BlockID]BlockID
	work   map[BlockID]int
}

func newRefTree() *refTree {
	return &refTree{
		ids:    []BlockID{GenesisID},
		parent: map[BlockID]BlockID{},
		work:   map[BlockID]int{GenesisID: 0},
	}
}

// add records block id under parent with the given Work (≤ 0 counts as 1).
func (r *refTree) add(id, parent BlockID, work int) {
	r.ids = append(r.ids, id)
	r.parent[id] = parent
	r.work[id] = max(work, 1)
}

func (r *refTree) height(id BlockID) int {
	h := 0
	for ; id != GenesisID; id = r.parent[id] {
		h++
	}
	return h
}

func (r *refTree) chainWork(id BlockID) int {
	w := 0
	for ; id != GenesisID; id = r.parent[id] {
		w += r.work[id]
	}
	return w
}

// leaves returns the blocks no other block names as parent, sorted.
func (r *refTree) leaves() []BlockID {
	inner := map[BlockID]bool{}
	for _, p := range r.parent {
		inner[p] = true
	}
	var out []BlockID
	for _, b := range r.ids {
		if !inner[b] {
			out = append(out, b)
		}
	}
	slices.Sort(out)
	return out
}

// sums returns every block's subtree work, walking each block's root path.
func (r *refTree) sums() map[BlockID]int {
	out := map[BlockID]int{}
	for _, b := range r.ids {
		for a := b; ; a = r.parent[a] {
			out[a] += r.work[b]
			if a == GenesisID {
				break
			}
		}
	}
	return out
}

// longestTip is the leaf scan LongestChain ran before it kept a memo.
func (r *refTree) longestTip() BlockID {
	bestLen, best := -1, GenesisID
	for _, leaf := range r.leaves() {
		if h := r.height(leaf); h > bestLen || (h == bestLen && leaf > best) {
			bestLen, best = h, leaf
		}
	}
	return best
}

// heaviestTip is the leaf scan HeaviestChain ran before it kept a memo.
func (r *refTree) heaviestTip() BlockID {
	bestW, best := -1, GenesisID
	for _, leaf := range r.leaves() {
		if w := r.chainWork(leaf); w > bestW || (w == bestW && leaf > best) {
			bestW, best = w, leaf
		}
	}
	return best
}

// ghostTip descends from genesis into the child with the most subtree
// work, ties to the largest id.
func (r *refTree) ghostTip() BlockID {
	sum := r.sums()
	cur := GenesisID
	for {
		var best BlockID
		bestW := -1
		for _, b := range r.ids {
			if b == GenesisID || r.parent[b] != cur {
				continue
			}
			if w := sum[b]; w > bestW || (w == bestW && b > best) {
				best, bestW = b, w
			}
		}
		if bestW < 0 {
			return cur
		}
		cur = best
	}
}

// tip returns the model's answer for the named selector.
func (r *refTree) tip(sel Selector) BlockID {
	switch sel.(type) {
	case LongestChain, SingleChain:
		return r.longestTip()
	case HeaviestChain:
		return r.heaviestTip()
	case GHOST:
		return r.ghostTip()
	}
	panic("refTree: unknown selector " + sel.Name())
}

// chain returns the model's root path ending at id.
func (r *refTree) chain(id BlockID) []BlockID {
	out := make([]BlockID, r.height(id)+1)
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = id
		id = r.parent[id]
	}
	return out
}

// freshGHOSTTip descends tr from genesis using only the public API, summing
// subtree work from scratch, so it shares no state with GHOST's path.
func freshGHOSTTip(tr *Tree) BlockID {
	var sum func(BlockID) int
	sum = func(id BlockID) int {
		b, _ := tr.Get(id)
		s := b.work()
		if id == GenesisID {
			s = 0
		}
		for _, k := range tr.Children(id) {
			s += sum(k)
		}
		return s
	}
	cur := GenesisID
	for {
		kids := tr.Children(cur)
		if len(kids) == 0 {
			return cur
		}
		best, bestW := kids[0], sum(kids[0])
		for _, k := range kids[1:] {
			if w := sum(k); w > bestW || (w == bestW && k > best) {
				best, bestW = k, w
			}
		}
		cur = best
	}
}

// checkSelectors compares every selector's Select and SelectTip on tr with
// the model.
func checkSelectors(t *testing.T, tr *Tree, ref *refTree, what string) {
	t.Helper()
	for _, sel := range allSelectors() {
		want := ref.tip(sel)
		if got := sel.(TipSelector).SelectTip(tr).ID; got != want {
			t.Fatalf("%s: %s SelectTip = %s, want %s", what, sel.Name(), got, want)
		}
		if got, wantChain := sel.Select(tr).IDs(), ref.chain(want); !slices.Equal(got, wantChain) {
			t.Fatalf("%s: %s Select = %v, want %v", what, sel.Name(), got, wantChain)
		}
	}
}

// TestPropertySelectorsMatchBruteForce grows random trees with Work 0–3
// and deliberate ties — siblings copying an existing block's weight, under
// ids drawn independently of insertion order — so every selector's id
// tie-break decides real races. After every insert a clone of the live
// tree (carrying its memos and GHOST path) must give the model's answer
// for all four selectors. Between inserts the live tree itself is queried
// at random with Select, SelectTip and SubtreeWork, and at random replaced
// by a clone, so inserts land on trees in every mix of followed, stale and
// truncated GHOST paths and of folded and pending subtree work.
//
// A second family is shaped like a partition: two branches, each at least
// 60 blocks deep, race from a common ancestor, so the GHOST path follows
// one branch long enough to carry lazy path adds and then flips to the
// other, truncating the path at the fork. At the end of every trial the
// subtree work of every block must match the model.
func TestPropertySelectorsMatchBruteForce(t *testing.T) {
	sels := allSelectors()
	for trial := 0; trial < 60; trial++ {
		src := prng.New(uint64(9100 + trial))
		pr := newProbe(t, src, trial)
		n := 40 + src.Intn(100)
		for i := 0; i < n; i++ {
			ref := pr.ref
			var p BlockID
			w := src.Intn(4)
			switch r := src.Intn(10); {
			case r < 3: // extend the newest block: long linear runs
				p = ref.ids[len(ref.ids)-1]
			case r < 5: // extend a selected tip, so the memos follow it
				p = ref.tip(sels[src.Intn(len(sels))])
			case r < 8 && len(ref.ids) > 1: // tie an existing block
				b := ref.ids[1+src.Intn(len(ref.ids)-1)]
				p, w = ref.parent[b], ref.work[b]
			default:
				p = ref.ids[src.Intn(len(ref.ids))]
			}
			pr.insert(BlockID(fmt.Sprintf("%c%03d", 'a'+src.Intn(4), i)), p, w)
		}
		pr.finish()
	}
	for trial := 0; trial < 12; trial++ {
		src := prng.New(uint64(9300 + trial))
		pr := newProbe(t, src, 100+trial)
		tip, trunk := GenesisID, 5+src.Intn(20)
		for i := 0; i < trunk; i++ {
			id := BlockID(fmt.Sprintf("t%03d", i))
			pr.insert(id, tip, 1+src.Intn(3))
			tip = id
		}
		ends, depth := [2]BlockID{tip, tip}, [2]int{}
		for i := 0; depth[0] < 60 || depth[1] < 60; i++ {
			side := src.Intn(2)
			id := BlockID(fmt.Sprintf("%c%03d", 'p'+side, i))
			if p := pr.ref.parent[ends[side]]; depth[side] > 0 && src.Intn(8) == 0 {
				// an uncle: a sibling of the branch's end, off its path
				pr.insert(id, p, 1+src.Intn(3))
				continue
			}
			pr.insert(id, ends[side], 1+src.Intn(3))
			ends[side] = id
			depth[side]++
		}
		pr.finish()
	}
}

// probe drives one trial of TestPropertySelectorsMatchBruteForce: a live
// tree and the model it must agree with.
type probe struct {
	t     *testing.T
	src   *prng.Source
	trial int
	tr    *Tree
	ref   *refTree
}

func newProbe(t *testing.T, src *prng.Source, trial int) *probe {
	tr := New()
	if trial%2 == 1 {
		tr = NewCap(8)
	}
	return &probe{t: t, src: src, trial: trial, tr: tr, ref: newRefTree()}
}

// insert adds block id under p with work w to both trees, checks a clone
// of the live tree, and then queries or replaces the live tree at random.
func (pr *probe) insert(id, p BlockID, w int) {
	t, src, ref, sels := pr.t, pr.src, pr.ref, allSelectors()
	t.Helper()
	if err := pr.tr.Insert(Block{ID: id, Parent: p, Work: w}); err != nil {
		t.Fatalf("trial %d: insert %s under %s: %v", pr.trial, id, p, err)
	}
	ref.add(id, p, w)
	what := fmt.Sprintf("trial %d after %s", pr.trial, id)

	c := pr.tr.Clone()
	checkSelectors(t, c, ref, what+" (clone)")
	switch src.Intn(6) {
	case 0:
		sel := sels[src.Intn(len(sels))]
		if got, want := sel.Select(pr.tr).Tip().ID, ref.tip(sel); got != want {
			t.Fatalf("%s: %s Select tip = %s, want %s", what, sel.Name(), got, want)
		}
	case 1:
		sel := sels[src.Intn(len(sels))]
		if got, want := SelectTip(sel, pr.tr).ID, ref.tip(sel); got != want {
			t.Fatalf("%s: %s SelectTip = %s, want %s", what, sel.Name(), got, want)
		}
	case 2:
		b := ref.ids[src.Intn(len(ref.ids))]
		if got, want := pr.tr.SubtreeWork(b), ref.sums()[b]; got != want {
			t.Fatalf("%s: SubtreeWork(%s) = %d, want %d", what, b, got, want)
		}
	case 3:
		pr.tr = c
	}
}

// finish checks the live tree's selectors, leaves and every block's
// subtree work against the model.
func (pr *probe) finish() {
	t := pr.t
	t.Helper()
	checkSelectors(t, pr.tr, pr.ref, fmt.Sprintf("trial %d end", pr.trial))
	if got, want := pr.tr.Leaves(), pr.ref.leaves(); !slices.Equal(got, want) {
		t.Fatalf("trial %d: Leaves = %v, want %v", pr.trial, got, want)
	}
	sums := pr.ref.sums()
	for _, b := range pr.ref.ids {
		if got := pr.tr.SubtreeWork(b); got != sums[b] {
			t.Fatalf("trial %d end: SubtreeWork(%s) = %d, want %d", pr.trial, b, got, sums[b])
		}
	}
}
