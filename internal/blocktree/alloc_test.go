package blocktree

import (
	"fmt"
	"runtime"
	"testing"
)

// TestInsertAllocs pins the insert path's allocation budget on a pre-sized
// tree: with NewCap the maps never rehash, the GHOST path never grows past
// its capacity, and a first child is a window of the pre-sized children
// chunk — so a chain insert allocates nothing. Only a fork's second child
// reallocates its parent's slice. Reintroducing a per-insert children
// slice, a per-read sort+copy or a per-insert map rebuild blows the
// ceiling at once.
func TestInsertAllocs(t *testing.T) {
	const n = 512
	ids := make([]BlockID, n)
	for i := range ids {
		ids[i] = BlockID(fmt.Sprintf("b%04d", i))
	}
	allocs := testing.AllocsPerRun(20, func() {
		tr := NewCap(n + 1)
		parent := GenesisID
		for _, id := range ids {
			if err := tr.Insert(Block{ID: id, Parent: parent, Work: 1}); err != nil {
				t.Fatal(err)
			}
			parent = id
		}
	})
	perInsert := (allocs - 8) / n // subtract the NewCap fixed cost
	if perInsert > 0.05 {
		t.Fatalf("Insert averaged %.2f allocs per block (%.0f total for %d), want ≤ 0.05", perInsert, allocs, n)
	}
}

// TestSelectorAllocs pins the read path: selectors on a warm tree must
// allocate only the one chain they materialize (a Chain backing array),
// never per-level copies or sorted scratch.
func TestSelectorAllocs(t *testing.T) {
	tr := New()
	parent := GenesisID
	for i := 0; i < 128; i++ {
		id := BlockID(fmt.Sprintf("b%04d", i))
		if err := tr.Insert(Block{ID: id, Parent: parent, Work: 1}); err != nil {
			t.Fatal(err)
		}
		parent = id
	}
	for _, sel := range []Selector{LongestChain{}, HeaviestChain{}, GHOST{}, SingleChain{}} {
		allocs := testing.AllocsPerRun(100, func() {
			if c := sel.Select(tr); len(c) != 129 {
				t.Fatalf("%s returned %d blocks", sel.Name(), len(c))
			}
		})
		if allocs > 1 {
			t.Fatalf("%s allocated %.1f objects per Select, want ≤ 1 (the chain)", sel.Name(), allocs)
		}
	}
}

// TestReadIDsAllocs pins the shared read path on a 600-block chain: a
// read with no new block allocates nothing, and a read after each new
// block allocates well under one object amortized — only the id buffer's
// doubling growth. A per-read chain copy allocates one object on every
// read and fails both bounds.
func TestReadIDsAllocs(t *testing.T) {
	const n = 600
	s := NewSeqCap(LongestChain{}, AcceptAll, 2*n)
	parent := GenesisID
	for i := 0; i < n; i++ {
		id := BlockID(fmt.Sprintf("b%04d", i))
		if s.Update(parent, &Block{ID: id, Work: 1}) != nil {
			t.Fatalf("update %s failed", id)
		}
		parent = id
	}
	s.ReadIDs()
	if allocs := testing.AllocsPerRun(100, func() { s.ReadIDs() }); allocs != 0 {
		t.Fatalf("ReadIDs with no new block allocated %.1f objects, want 0", allocs)
	}

	ids := make([]BlockID, n)
	for i := range ids {
		ids[i] = BlockID(fmt.Sprintf("c%04d", i))
	}
	var before, after runtime.MemStats
	var mallocs uint64
	for _, id := range ids {
		if s.Update(parent, &Block{ID: id, Work: 1}) != nil {
			t.Fatalf("update %s failed", id)
		}
		parent = id
		runtime.ReadMemStats(&before)
		s.ReadIDs()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	if per := float64(mallocs) / n; per > 0.1 {
		t.Fatalf("ReadIDs after one new block averaged %.3f allocs, want ≤ 0.1", per)
	}
}
