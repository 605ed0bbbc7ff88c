package blocktree

import (
	"slices"
	"strings"
	"testing"

	"blockadt/internal/adt"
	"blockadt/internal/history"
)

// TestFig1TransitionPath reproduces Figure 1: a possible path of the
// transition system defined by the BT-ADT — append(b1)/true when b1 ∈ B′,
// append(b3)/false when b3 ∉ B′, append(b2)/true, with reads returning
// b0⌢b1 and then b0⌢b1⌢b2.
func TestFig1TransitionPath(t *testing.T) {
	valid := func(b Block) bool { return b.ID != "b3" } // b3 ∉ B′
	bt := ADT(LongestChain{}, valid)

	seq := []adt.Operation[Input, Output]{
		adt.Out[Input, Output](AppendOp(Block{ID: "b1"}), Output{OK: true}),
		adt.Out[Input, Output](AppendOp(Block{ID: "b3"}), Output{OK: false}),
		adt.Out[Input, Output](ReadOp(), Output{IsChain: true, Chain: history.Chain{"b0", "b1"}}),
		adt.Out[Input, Output](AppendOp(Block{ID: "b2"}), Output{OK: true}),
		adt.Out[Input, Output](AppendOp(Block{ID: "b3"}), Output{OK: false}),
		adt.Out[Input, Output](ReadOp(), Output{IsChain: true, Chain: history.Chain{"b0", "b1", "b2"}}),
	}
	if err := bt.Recognizes(seq, Output.Equal); err != nil {
		t.Fatalf("Figure 1 path not in L(BT-ADT): %v", err)
	}

	// A wrong read output must leave the language.
	bad := []adt.Operation[Input, Output]{
		adt.Out[Input, Output](AppendOp(Block{ID: "b1"}), Output{OK: true}),
		adt.Out[Input, Output](ReadOp(), Output{IsChain: true, Chain: history.Chain{"b0"}}),
	}
	if err := bt.Recognizes(bad, Output.Equal); err == nil {
		t.Fatal("stale read accepted into L(BT-ADT)")
	}
}

func TestADTInitialReadReturnsGenesis(t *testing.T) {
	bt := ADT(LongestChain{}, AcceptAll)
	tr := bt.Replay([]adt.Operation[Input, Output]{adt.In[Input, Output](ReadOp())})
	out := tr.Steps[0].Output
	if !out.IsChain || out.Chain.String() != "b0" {
		t.Fatalf("initial read = %v, want b0 (δ((bt0,f,P), read()) = b0)", out)
	}
}

func TestADTAppendChainsToSelectedTip(t *testing.T) {
	bt := ADT(LongestChain{}, AcceptAll)
	tr := bt.Replay([]adt.Operation[Input, Output]{
		adt.In[Input, Output](AppendOp(Block{ID: "x"})),
		adt.In[Input, Output](AppendOp(Block{ID: "y"})),
		adt.In[Input, Output](ReadOp()),
	})
	out := tr.Final().Tree
	y, _ := out.Get("y")
	if y.Parent != "x" {
		t.Fatalf("y's parent = %s, want x (append goes to tip of f(bt))", y.Parent)
	}
}

func TestADTRejectedAppendLeavesStateUnchanged(t *testing.T) {
	rejectAll := func(Block) bool { return false }
	bt := ADT(LongestChain{}, rejectAll)
	tr := bt.Replay([]adt.Operation[Input, Output]{
		adt.In[Input, Output](AppendOp(Block{ID: "x"})),
	})
	if tr.Final().Tree.Size() != 1 {
		t.Fatal("rejected append changed the state")
	}
	if tr.Steps[0].Output.OK {
		t.Fatal("rejected append returned true")
	}
}

func TestADTTauIsPersistent(t *testing.T) {
	// τ must return fresh states: the Before state of a step must not
	// observe the After state's insertion.
	bt := ADT(LongestChain{}, AcceptAll)
	tr := bt.Replay([]adt.Operation[Input, Output]{
		adt.In[Input, Output](AppendOp(Block{ID: "x"})),
	})
	if tr.Steps[0].Before.Tree.Has("x") {
		t.Fatal("τ mutated the predecessor state")
	}
	if !tr.Steps[0].After.Tree.Has("x") {
		t.Fatal("τ did not apply the append")
	}
}

func TestSeqBlockTreeAppendRead(t *testing.T) {
	s := NewSeq(LongestChain{}, AcceptAll)
	if got := s.Read().String(); got != "b0" {
		t.Fatalf("initial read = %s", got)
	}
	if !s.Append(Block{ID: "a"}) {
		t.Fatal("append a failed")
	}
	if !s.Append(Block{ID: "b"}) {
		t.Fatal("append b failed")
	}
	if got := s.Read().String(); got != "b0⌢a⌢b" {
		t.Fatalf("read = %s", got)
	}
}

func TestSeqBlockTreeAppendInvalid(t *testing.T) {
	s := NewSeq(LongestChain{}, func(b Block) bool { return !strings.HasPrefix(string(b.ID), "bad") })
	if s.Append(Block{ID: "bad1"}) {
		t.Fatal("invalid block accepted")
	}
	if got := s.Read().String(); got != "b0" {
		t.Fatalf("read after rejected append = %s", got)
	}
}

func TestSeqBlockTreeDuplicateAppend(t *testing.T) {
	s := NewSeq(LongestChain{}, AcceptAll)
	if !s.Append(Block{ID: "a"}) {
		t.Fatal("first append failed")
	}
	if s.Append(Block{ID: "a"}) {
		t.Fatal("duplicate append accepted")
	}
}

func TestSeqBlockTreeUpdateExplicitParent(t *testing.T) {
	s := NewSeq(LongestChain{}, AcceptAll)
	if !s.Append(Block{ID: "a"}) || !s.Append(Block{ID: "b"}) {
		t.Fatal("setup failed")
	}
	// Update attaches to the named predecessor, forking below the tip.
	if s.Update("a", &Block{ID: "fork"}) != nil {
		t.Fatal("update failed")
	}
	blk, _ := s.Tree().Get("fork")
	if blk.Parent != "a" {
		t.Fatalf("fork parent = %s, want a", blk.Parent)
	}
	// A replica buffers on the unknown-parent report, so it is the bare
	// sentinel, distinct from a duplicate.
	if err := s.Update("ghost-parent", &Block{ID: "orphan"}); err != ErrUnknownParent {
		t.Fatalf("update with unknown parent: err = %v, want ErrUnknownParent", err)
	}
	if err := s.Update("a", &Block{ID: "fork"}); err != ErrDuplicate {
		t.Fatalf("repeated update: err = %v, want ErrDuplicate", err)
	}
}

func TestScoreFunctions(t *testing.T) {
	if LengthScore(nil) != 0 {
		t.Fatal("empty chain score")
	}
	if LengthScore(history.Chain{"b0"}) != 0 {
		t.Fatal("genesis-only score must be s0 = 0")
	}
	if LengthScore(history.Chain{"b0", "1", "2"}) != 2 {
		t.Fatal("length score")
	}
	a := history.Chain{"b0", "1", "2", "3"}
	b := history.Chain{"b0", "1", "x"}
	if MCPS(LengthScore, a, b) != 1 {
		t.Fatalf("mcps = %d, want 1", MCPS(LengthScore, a, b))
	}
}

func TestPredicates(t *testing.T) {
	if !AcceptAll(Block{ID: "anything"}) {
		t.Fatal("AcceptAll rejected a block")
	}
	if RequireToken(Block{ID: "x"}) {
		t.Fatal("RequireToken accepted an unvalidated block")
	}
	if !RequireToken(Block{ID: "x", Token: 7}) {
		t.Fatal("RequireToken rejected a validated block")
	}
}

func TestChainHelpers(t *testing.T) {
	g := Genesis()
	c := Chain{g, {ID: "a", Parent: GenesisID, Height: 1, Work: 2}}
	if c.Tip().ID != "a" {
		t.Fatal("tip")
	}
	if c.Weight() != 2 {
		t.Fatal("weight")
	}
	ids := c.IDs()
	if len(ids) != 2 || ids[1] != "a" {
		t.Fatalf("ids = %v", ids)
	}
}

// pinned selects the chain ending at *target when it is set and the
// longest chain otherwise. It has no TipSelector fast path, so it also
// drives ReadIDs through SelectTip's generic fallback, and it can land a
// read on an ancestor of the previous tip, which no leaf selector does.
type pinned struct{ target *BlockID }

func (pinned) Name() string { return "pinned" }

func (p pinned) Select(t *Tree) Chain {
	if *p.target == "" {
		return LongestChain{}.Select(t)
	}
	c, _ := t.ChainTo(*p.target)
	return c
}

// TestReadIDsNeverRewritesReturnedChains drives ReadIDs through growth,
// repeated reads, a reorg, more growth, a read of an ancestor tip and a
// new branch grown from it. Every returned chain is copied when it is
// returned; at the end each must still equal its copy (the shared buffer
// was never written below its length), equal the selector's chain at its
// read time, and have cap == len so an append by its holder cannot write
// into the buffer.
func TestReadIDsNeverRewritesReturnedChains(t *testing.T) {
	var target BlockID
	sel := pinned{&target}
	s := NewSeq(sel, AcceptAll)
	type read struct {
		got, copied, want history.Chain
	}
	var reads []read
	doRead := func() {
		want := sel.Select(s.Tree()).IDs()
		got := s.ReadIDs()
		reads = append(reads, read{got: got, copied: got.Clone(), want: want})
	}
	grow := func(parent BlockID, ids ...BlockID) {
		for _, id := range ids {
			if s.Update(parent, &Block{ID: id, Work: 1}) != nil {
				t.Fatalf("update %s under %s failed", id, parent)
			}
			parent = id
		}
	}

	doRead()
	grow(GenesisID, "a1", "a2", "a3")
	doRead()
	doRead() // repeat: same chain
	grow("a3", "a4")
	doRead()
	grow("a2", "f3", "f4", "f5") // fork below the tip, longer: reorg
	doRead()
	grow("f5", "f6", "f7")
	doRead()
	target = "f4" // ancestor of the current tip
	doRead()
	target = "g5"
	grow("f4", "g5") // a new branch from the ancestor
	doRead()
	target = ""
	grow("f7", "f8")
	doRead()

	for i, r := range reads {
		if !slices.Equal(r.got, r.copied) {
			t.Errorf("read %d changed after it was returned: now %s, was %s", i, r.got, r.copied)
		}
		if !slices.Equal(r.got, r.want) {
			t.Errorf("read %d = %s, want the selected chain %s", i, r.got, r.want)
		}
		if cap(r.got) != len(r.got) {
			t.Errorf("read %d has cap %d > len %d", i, cap(r.got), len(r.got))
		}
	}
}
