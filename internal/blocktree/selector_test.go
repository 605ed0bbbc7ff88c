package blocktree

import (
	"testing"
	"testing/quick"

	"blockadt/internal/prng"
)

// buildForked builds:
//
//	b0 ── a1 ── a2 ── a3        (length 3, work 3)
//	  └── h1 ── h2              (length 2, work 8)
//	        └── h2b             (sibling of h2, work 1)
func buildForked(t *testing.T) *Tree {
	t.Helper()
	tr := New()
	for _, b := range []Block{
		{ID: "a1", Parent: GenesisID, Work: 1},
		{ID: "a2", Parent: "a1", Work: 1},
		{ID: "a3", Parent: "a2", Work: 1},
		{ID: "h1", Parent: GenesisID, Work: 4},
		{ID: "h2", Parent: "h1", Work: 4},
		{ID: "h2b", Parent: "h1", Work: 1},
	} {
		if err := tr.Insert(b); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestLongestChain(t *testing.T) {
	tr := buildForked(t)
	c := LongestChain{}.Select(tr)
	if c.String() != "b0⌢a1⌢a2⌢a3" {
		t.Fatalf("longest = %s", c)
	}
}

func TestLongestChainTieBreak(t *testing.T) {
	tr := New()
	for _, b := range []Block{
		{ID: "x", Parent: GenesisID},
		{ID: "y", Parent: GenesisID},
	} {
		if err := tr.Insert(b); err != nil {
			t.Fatal(err)
		}
	}
	// Equal lengths: lexicographically largest tip wins (the paper's
	// Figure 2 convention).
	c := LongestChain{}.Select(tr)
	if c.Tip().ID != "y" {
		t.Fatalf("tie-break tip = %s, want y", c.Tip().ID)
	}
}

func TestHeaviestChain(t *testing.T) {
	tr := buildForked(t)
	c := HeaviestChain{}.Select(tr)
	if c.String() != "b0⌢h1⌢h2" {
		t.Fatalf("heaviest = %s (weight %d)", c, c.Weight())
	}
	if c.Weight() != 8 {
		t.Fatalf("weight = %d, want 8", c.Weight())
	}
}

func TestGHOST(t *testing.T) {
	tr := buildForked(t)
	// Subtree works: a-branch = 3; h-branch = 4+4+1 = 9 → descend h1;
	// under h1: h2 (4) vs h2b (1) → h2.
	c := GHOST{}.Select(tr)
	if c.String() != "b0⌢h1⌢h2" {
		t.Fatalf("ghost = %s", c)
	}
}

// TestGHOSTDiffersFromLongest reproduces the canonical GHOST motivation: a
// heavily-forked bushy subtree beats a longer skinny chain.
func TestGHOSTDiffersFromLongest(t *testing.T) {
	tr := New()
	// Skinny chain of length 4.
	for i, id := range []BlockID{"s1", "s2", "s3", "s4"} {
		parent := GenesisID
		if i > 0 {
			parent = BlockID("s" + string(rune('0'+i)))
		}
		if err := tr.Insert(Block{ID: id, Parent: parent, Work: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Bushy subtree: root u1 with 5 children (total work 6) but depth 2.
	if err := tr.Insert(Block{ID: "u1", Parent: GenesisID, Work: 1}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []BlockID{"u2a", "u2b", "u2c", "u2d", "u2e"} {
		if err := tr.Insert(Block{ID: id, Parent: "u1", Work: 1}); err != nil {
			t.Fatal(err)
		}
	}
	longest := LongestChain{}.Select(tr)
	ghost := GHOST{}.Select(tr)
	if longest.Tip().ID != "s4" {
		t.Fatalf("longest tip = %s, want s4", longest.Tip().ID)
	}
	if ghost[1].ID != "u1" {
		t.Fatalf("ghost must enter the bushy subtree, got %s", ghost)
	}
}

func TestSingleChain(t *testing.T) {
	tr := New()
	for i, id := range []BlockID{"c1", "c2", "c3"} {
		parent := GenesisID
		if i > 0 {
			parent = BlockID("c" + string(rune('0'+i)))
		}
		if err := tr.Insert(Block{ID: id, Parent: parent}); err != nil {
			t.Fatal(err)
		}
	}
	c := SingleChain{}.Select(tr)
	if c.String() != "b0⌢c1⌢c2⌢c3" {
		t.Fatalf("single = %s", c)
	}
	// On a forked tree it falls back to longest-chain.
	forked := buildForked(t)
	fb := SingleChain{}.Select(forked)
	lc := LongestChain{}.Select(forked)
	if fb.String() != lc.String() {
		t.Fatalf("fallback = %s, want %s", fb, lc)
	}
}

func TestSelectorsOnGenesisOnlyTree(t *testing.T) {
	tr := New()
	for _, s := range []Selector{LongestChain{}, HeaviestChain{}, GHOST{}, SingleChain{}} {
		c := s.Select(tr)
		if len(c) != 1 || c[0].ID != GenesisID {
			t.Fatalf("%s on {b0} = %s", s.Name(), c)
		}
	}
}

func TestSelectorNames(t *testing.T) {
	names := map[string]bool{}
	for _, s := range []Selector{LongestChain{}, HeaviestChain{}, GHOST{}, SingleChain{}} {
		if s.Name() == "" || names[s.Name()] {
			t.Fatalf("selector name empty or duplicated: %q", s.Name())
		}
		names[s.Name()] = true
	}
}

// TestProperty_SelectorsReturnValidRootedChains: on random trees every
// selector returns a genesis-rooted path that exists in the tree, and the
// longest selector's length dominates all leaves.
func TestProperty_SelectorsReturnValidRootedChains(t *testing.T) {
	selectors := []Selector{LongestChain{}, HeaviestChain{}, GHOST{}, SingleChain{}}
	f := func(seed uint64, n uint8) bool {
		src := prng.New(seed)
		tr := New()
		ids := []BlockID{GenesisID}
		for i := 0; i < int(n%40)+1; i++ {
			parent := ids[src.Intn(len(ids))]
			id := BlockID("q" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)))
			if tr.Insert(Block{ID: id, Parent: parent, Work: 1 + src.Intn(4)}) == nil {
				ids = append(ids, id)
			}
		}
		maxLeafLen := 0
		for _, leaf := range tr.Leaves() {
			c, _ := tr.ChainTo(leaf)
			if c.Length() > maxLeafLen {
				maxLeafLen = c.Length()
			}
		}
		for _, s := range selectors {
			c := s.Select(tr)
			if c[0].ID != GenesisID {
				return false
			}
			for i := 1; i < len(c); i++ {
				if c[i].Parent != c[i-1].ID || !tr.Has(c[i].ID) {
					return false
				}
			}
			if s.Name() == "longest" && c.Length() != maxLeafLen {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestProperty_GHOSTPrefixStability: adding work under the GHOST-selected
// tip never moves the selection off that chain's prefix — the stability
// property motivating Ethereum's use of GHOST.
func TestProperty_GHOSTPrefixStability(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		src := prng.New(seed)
		tr := New()
		ids := []BlockID{GenesisID}
		for i := 0; i < int(n%30)+1; i++ {
			parent := ids[src.Intn(len(ids))]
			id := BlockID("g" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)))
			if tr.Insert(Block{ID: id, Parent: parent, Work: 1}) == nil {
				ids = append(ids, id)
			}
		}
		before := GHOST{}.Select(tr)
		tip := before.Tip().ID
		if err := tr.Insert(Block{ID: "new-under-tip", Parent: tip, Work: 1}); err != nil {
			return false
		}
		after := GHOST{}.Select(tr)
		return after.IDs().HasPrefix(before.IDs())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestProperty_GHOSTMemoMatchesDescent: with a GHOST selection between
// every two inserts, the tip GHOST answers from its kept path always
// equals a descent from genesis over from-scratch subtree sums, so Insert
// marks the path stale whenever the selection could move.
func TestProperty_GHOSTMemoMatchesDescent(t *testing.T) {
	var g GHOST
	f := func(seed uint64, n uint8) bool {
		src := prng.New(seed)
		tr := New()
		ids := []BlockID{GenesisID}
		for i := 0; i < int(n%30)+1; i++ {
			parent := ids[src.Intn(len(ids))]
			id := BlockID("m" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)))
			if tr.Insert(Block{ID: id, Parent: parent, Work: 1 + src.Intn(3)}) == nil {
				ids = append(ids, id)
			}
			memo := g.SelectTip(tr).ID
			if g.SelectTip(tr).ID != memo || freshGHOSTTip(tr) != memo {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
