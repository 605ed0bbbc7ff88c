//go:build !race

// The race detector makes sync.Pool drop released trees at random, so the
// reuse this file pins holds only without it.

package blocktree

import (
	"fmt"
	"testing"
)

// TestNewCapReusesReleasedTree pins the recycling of replica trees: once a
// 900-block tree has been released, NewCap(900) takes its node slab, id
// index, GHOST path and child chunk, so a whole cycle — NewCap, 900 chain
// inserts, a GHOST read, Release — allocates only the Tree header Release
// pools. Without the pool NewCap allocates a fresh slab of about 120 KB,
// an index and two chunks every time. Every cycle inserts the same ids, so
// an index Release did not clear reports a duplicate and fails it too.
func TestNewCapReusesReleasedTree(t *testing.T) {
	const n = 900
	ids := make([]BlockID, n)
	for i := range ids {
		ids[i] = BlockID(fmt.Sprintf("b%04d", i))
	}
	cycle := func() {
		tr := NewCap(n)
		parent := GenesisID
		for _, id := range ids {
			if err := tr.Insert(Block{ID: id, Parent: parent, Work: 1}); err != nil {
				t.Fatal(err)
			}
			parent = id
		}
		if tip := (GHOST{}).SelectTip(tr); tip.ID != parent || tip.Height != n {
			t.Fatalf("GHOST tip %s at height %d, want %s at %d", tip.ID, tip.Height, parent, n)
		}
		tr.Release()
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs > 1 {
		t.Fatalf("NewCap+Insert×%d+Release allocated %.1f objects per cycle, want ≤ 1 (the pooled Tree header)", n, allocs)
	}
}

// TestNewCapDropsSmallReleasedTree: a released slab too small for the hint
// is not reused, and the tree NewCap builds instead holds the hinted
// number of blocks without growing.
func TestNewCapDropsSmallReleasedTree(t *testing.T) {
	const n = 900
	NewCap(30).Release()
	tr := NewCap(n)
	if c := cap(tr.nodes); c < n+1 {
		t.Fatalf("NewCap(%d) after releasing a 30-block tree has a %d-block slab", n, c)
	}
	if tr.Size() != 1 || tr.Height() != 0 || !tr.Has(GenesisID) {
		t.Fatalf("fresh tree: size %d, height %d", tr.Size(), tr.Height())
	}
}
