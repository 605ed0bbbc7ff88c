package blocktree

import (
	"errors"
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

func TestConcurrentInsertsAndReads(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
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
	wg.Wait()
	if tr.Size() != 1+4*50 {
		t.Fatalf("size = %d, want %d", tr.Size(), 1+4*50)
	}
	if memo, fresh := (GHOST{}).SelectTip(tr).ID, (GHOST{}).SelectTip(tr.Clone()).ID; memo != fresh {
		t.Fatalf("memoized GHOST tip %s, fresh descent %s", memo, fresh)
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
