package blocktree

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"blockadt/internal/prng"
)

func mustInsert(t *testing.T, tr *Tree, id, parent BlockID, work int) {
	t.Helper()
	if err := tr.Insert(Block{ID: id, Parent: parent, Work: work}); err != nil {
		t.Fatalf("insert %s under %s: %v", id, parent, err)
	}
}

func TestNewTreeHasGenesis(t *testing.T) {
	tr := New()
	if !tr.Has(GenesisID) {
		t.Fatal("new tree missing genesis")
	}
	if tr.Size() != 1 {
		t.Fatalf("size = %d, want 1", tr.Size())
	}
	g, _ := tr.Get(GenesisID)
	if g.Height != 0 {
		t.Fatalf("genesis height = %d", g.Height)
	}
}

func TestInsertDerivesHeight(t *testing.T) {
	tr := New()
	mustInsert(t, tr, "a", GenesisID, 1)
	mustInsert(t, tr, "b", "a", 1)
	b, _ := tr.Get("b")
	if b.Height != 2 {
		t.Fatalf("height = %d, want 2", b.Height)
	}
	// Incoming Height is ignored.
	if err := tr.Insert(Block{ID: "c", Parent: "b", Height: 99}); err != nil {
		t.Fatal(err)
	}
	c, _ := tr.Get("c")
	if c.Height != 3 {
		t.Fatalf("height = %d, want 3", c.Height)
	}
}

func TestInsertErrors(t *testing.T) {
	tr := New()
	if err := tr.Insert(Block{ID: "x", Parent: "nope"}); !errors.Is(err, ErrUnknownParent) {
		t.Fatalf("err = %v, want ErrUnknownParent", err)
	}
	mustInsert(t, tr, "x", GenesisID, 1)
	if err := tr.Insert(Block{ID: "x", Parent: GenesisID}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
	if err := tr.Insert(Block{ID: "y", Parent: "y"}); !errors.Is(err, ErrSelfParent) {
		t.Fatalf("err = %v, want ErrSelfParent", err)
	}
}

func TestChainTo(t *testing.T) {
	tr := New()
	mustInsert(t, tr, "a", GenesisID, 1)
	mustInsert(t, tr, "b", "a", 1)
	c, ok := tr.ChainTo("b")
	if !ok {
		t.Fatal("chain not found")
	}
	if c.String() != "b0⌢a⌢b" {
		t.Fatalf("chain = %s", c)
	}
	if c.Length() != 2 {
		t.Fatalf("length = %d", c.Length())
	}
	if _, ok := tr.ChainTo("zz"); ok {
		t.Fatal("chain to unknown block")
	}
	g, _ := tr.ChainTo(GenesisID)
	if g.String() != "b0" || g.Length() != 0 {
		t.Fatalf("genesis chain = %s len %d", g, g.Length())
	}
}

func TestLeavesAndForks(t *testing.T) {
	tr := New()
	mustInsert(t, tr, "a", GenesisID, 1)
	mustInsert(t, tr, "b", GenesisID, 1)
	mustInsert(t, tr, "c", "a", 1)
	leaves := tr.Leaves()
	if len(leaves) != 2 || leaves[0] != "b" || leaves[1] != "c" {
		t.Fatalf("leaves = %v", leaves)
	}
	forks := tr.ForkCount()
	if forks[GenesisID] != 2 || len(forks) != 1 {
		t.Fatalf("forks = %v", forks)
	}
	if tr.MaxFanout() != 2 {
		t.Fatalf("max fanout = %d", tr.MaxFanout())
	}
}

func TestSubtreeWork(t *testing.T) {
	tr := New()
	mustInsert(t, tr, "a", GenesisID, 2)
	mustInsert(t, tr, "b", GenesisID, 1)
	mustInsert(t, tr, "c", "a", 3)
	if w := tr.SubtreeWork("a"); w != 5 {
		t.Fatalf("subtree(a) = %d, want 5", w)
	}
	if w := tr.SubtreeWork("b"); w != 1 {
		t.Fatalf("subtree(b) = %d, want 1", w)
	}
	if w := tr.SubtreeWork(GenesisID); w != 6 {
		t.Fatalf("subtree(b0) = %d, want 6", w)
	}
}

func TestZeroWorkCountsAsOne(t *testing.T) {
	tr := New()
	mustInsert(t, tr, "a", GenesisID, 0)
	c, _ := tr.ChainTo("a")
	if c.Weight() != 1 {
		t.Fatalf("weight = %d, want 1", c.Weight())
	}
}

func TestCloneIsDeep(t *testing.T) {
	tr := New()
	mustInsert(t, tr, "a", GenesisID, 1)
	cp := tr.Clone()
	mustInsert(t, tr, "b", "a", 1)
	if cp.Has("b") {
		t.Fatal("clone sees later insert")
	}
	if cp.Size() != 2 {
		t.Fatalf("clone size = %d", cp.Size())
	}
	mustInsert(t, cp, "z", "a", 1)
	if tr.Has("z") {
		t.Fatal("original sees clone insert")
	}
}

// TestConcurrentInsertsAndReads runs inserting writers beside GHOST
// readers. A GHOST read whose memo is stale folds pending subtree work
// under the write lock, so run it under -race.
func TestConcurrentInsertsAndReads(t *testing.T) {
	tr := New()
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if c := (GHOST{}).Select(tr); len(c) == 0 || c[0].ID != GenesisID {
					t.Error("GHOST selection does not start at genesis")
					return
				}
				tr.SubtreeWork(GenesisID)
			}
		}()
	}
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			parent := GenesisID
			for i := 0; i < 50; i++ {
				id := BlockID(string(rune('a'+w)) + string(rune('0'+i%10)) + string(rune('A'+i/10)))
				if err := tr.Insert(Block{ID: id, Parent: parent}); err == nil {
					parent = id
				}
				tr.Leaves()
				tr.MaxFanout()
				GHOST{}.SelectTip(tr) // concurrent readers share the memo
			}
		}(w)
	}
	writers.Wait()
	close(done)
	readers.Wait()
	if tr.Size() != 1+4*50 {
		t.Fatalf("size = %d, want %d", tr.Size(), 1+4*50)
	}
	if got, fresh := (GHOST{}).SelectTip(tr).ID, freshGHOSTTip(tr); got != fresh {
		t.Fatalf("GHOST tip %s, fresh descent %s", got, fresh)
	}
	if w := tr.SubtreeWork(GenesisID); w != 4*50 {
		t.Fatalf("subtree(b0) = %d, want %d", w, 4*50)
	}
}

// TestPropertyLazySubtreeWorkMatchesBruteForce grows random trees with
// deep forks and work 1–3, querying GHOST and SubtreeWork on the tree at
// random so it is left in every mix of folded and pending blocks and of
// followed, stale and truncated GHOST paths. After every insert a clone
// (which carries the partial fold) must report every block's subtree work
// as a from-scratch sum and descend to the from-scratch GHOST tip, and
// every GHOST selection on the tree itself must match that tip.
func TestPropertyLazySubtreeWorkMatchesBruteForce(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		src := prng.New(uint64(7000 + trial))
		tr := New()
		ref := newRefTree()
		n := 60 + src.Intn(60)
		for i := 0; i < n; i++ {
			var p BlockID
			switch r := src.Intn(10); {
			case r < 5: // extend the newest block: long linear runs
				p = ref.ids[len(ref.ids)-1]
			case r < 7: // extend the GHOST tip, so the path can follow it
				p = ref.ghostTip()
			case r < 9: // fork a few blocks back: deep forks
				p = ref.ids[max(0, len(ref.ids)-1-src.Intn(8))]
			default:
				p = ref.ids[src.Intn(len(ref.ids))]
			}
			id := BlockID(fmt.Sprintf("p%03d", i))
			w := 1 + src.Intn(3)
			if err := tr.Insert(Block{ID: id, Parent: p, Work: w}); err != nil {
				t.Fatalf("trial %d: insert %s under %s: %v", trial, id, p, err)
			}
			ref.add(id, p, w)

			sum := ref.sums()
			want := ref.ghostTip()
			c := tr.Clone()
			for _, b := range ref.ids {
				if got, ref := c.SubtreeWork(b), sum[b]; got != ref {
					t.Fatalf("trial %d after %s: clone SubtreeWork(%s) = %d, want %d", trial, id, b, got, ref)
				}
			}
			if got := (GHOST{}).SelectTip(c).ID; got != want {
				t.Fatalf("trial %d after %s: clone GHOST tip %s, want %s", trial, id, got, want)
			}
			switch src.Intn(4) {
			case 0, 1:
				if got := (GHOST{}).SelectTip(tr).ID; got != want {
					t.Fatalf("trial %d after %s: GHOST tip %s, want %s", trial, id, got, want)
				}
			case 2:
				b := ref.ids[src.Intn(len(ref.ids))]
				if got, ref := tr.SubtreeWork(b), sum[b]; got != ref {
					t.Fatalf("trial %d after %s: SubtreeWork(%s) = %d, want %d", trial, id, b, got, ref)
				}
			}
		}
	}
}

// TestProperty_AppendOnlyInvariants: random insertion workloads preserve
// the structural invariants: height = parent height + 1, root subtree work
// equals total work, and every chain ends at genesis.
func TestProperty_AppendOnlyInvariants(t *testing.T) {
	f := func(seed uint64, nOps uint8) bool {
		src := prng.New(seed)
		tr := New()
		ids := []BlockID{GenesisID}
		total := 0
		for i := 0; i < int(nOps); i++ {
			parent := ids[src.Intn(len(ids))]
			id := BlockID("n" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)))
			w := 1 + src.Intn(3)
			if err := tr.Insert(Block{ID: id, Parent: parent, Work: w}); err != nil {
				continue
			}
			total += w
			ids = append(ids, id)
			pb, _ := tr.Get(parent)
			nb, _ := tr.Get(id)
			if nb.Height != pb.Height+1 {
				return false
			}
		}
		if tr.SubtreeWork(GenesisID) != total {
			return false
		}
		for _, leaf := range tr.Leaves() {
			c, ok := tr.ChainTo(leaf)
			if !ok || c[0].ID != GenesisID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestReleasedTreeIsEmptied: Release leaves nothing behind in the tree it
// ends, so a stray use fails loudly instead of reading the blocks of the
// tree that reuses its buffers; a second Release is a no-op.
func TestReleasedTreeIsEmptied(t *testing.T) {
	tr := NewCap(4)
	mustInsert(t, tr, "a", GenesisID, 1)
	tr.Release()
	tr.Release()
	if tr.Has("a") || tr.Has(GenesisID) {
		t.Fatal("released tree still answers lookups")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reading a released tree's tip did not panic")
		}
	}()
	tr.Height()
}
