package consistency

import (
	"slices"
	"sort"
	"testing"

	"blockadt/internal/blocktree"
	"blockadt/internal/history"
)

// The references below are the map-based passes the history's analysis
// index replaced, kept as test-only copies: the index must give what they
// gave on every history.

// refEarliest is BlockValidity's earliest map: per block name, the
// earliest invocation time of an append or update of it.
func refEarliest(h *history.History) map[history.BlockRef]int64 {
	earliest := map[history.BlockRef]int64{}
	for _, op := range h.Ops() {
		if op.Label.Kind != history.KindAppend && op.Label.Kind != history.KindUpdate || op.Label.Block == "" {
			continue
		}
		if old, ok := earliest[op.Label.Block]; !ok || op.InvTime < old {
			earliest[op.Label.Block] = op.InvTime
		}
	}
	return earliest
}

// refGrowthTimes is EverGrowingTree's op scan: the invocation times of
// the successful appends and the updates, sorted.
func refGrowthTimes(h *history.History) []int64 {
	var growthTimes []int64
	for _, op := range h.Ops() {
		if op.Label.Kind == history.KindAppend && op.Complete && op.Response.OK || op.Label.Kind == history.KindUpdate {
			growthTimes = append(growthTimes, op.InvTime)
		}
	}
	sort.Slice(growthTimes, func(a, b int) bool { return growthTimes[a] < growthTimes[b] })
	return growthTimes
}

// refReadsAgreeOnParents is the parent-agreement pass over two maps: one
// predecessor per block name, checked past each read's common prefix with
// the same process's previous read.
func refReadsAgreeOnParents(reads []history.ReadOp) bool {
	pred := map[history.BlockRef]history.BlockRef{}
	last := map[history.ProcID]history.Chain{}
	for _, r := range reads {
		c := r.Chain
		for i := max(1, len(last[r.Op.Proc].CommonPrefix(c))); i < len(c); i++ {
			if p, ok := pred[c[i]]; !ok {
				pred[c[i]] = c[i-1]
			} else if p != c[i-1] {
				return false
			}
		}
		last[r.Op.Proc] = c
	}
	return true
}

// refMaxReorg is the per-process read walk of the rollback collector: the
// most blocks a process's chain lost between two consecutive reads.
func refMaxReorg(h *history.History) int {
	last := map[history.ProcID]history.Chain{}
	deepest := 0
	for _, r := range h.Reads() {
		if prev, ok := last[r.Op.Proc]; ok {
			if d := len(prev) - len(prev.CommonPrefix(r.Chain)); d > deepest {
				deepest = d
			}
		}
		last[r.Op.Proc] = r.Chain
	}
	return deepest
}

// checkIndex compares h's analysis index with the references: parent
// agreement, rollback depth, growth times, and ids that are dense, name
// one block each (so no read's IDs was overwritten by a later read's),
// and carry the earliest insertion time of the block they name.
func checkIndex(t *testing.T, name string, h *history.History) {
	t.Helper()
	if got, want := h.ReadsAgreeOnParents(), refReadsAgreeOnParents(h.Reads()); got != want {
		t.Fatalf("%s: ReadsAgreeOnParents = %v, want %v", name, got, want)
	}
	if got, want := h.MaxReorg(), refMaxReorg(h); got != want {
		t.Fatalf("%s: MaxReorg = %d, want %d", name, got, want)
	}
	if got, want := h.GrowthTimes(), refGrowthTimes(h); !slices.Equal(got, want) {
		t.Fatalf("%s: GrowthTimes = %v, want %v", name, got, want)
	}
	earliest := h.Earliest()
	names := make([]history.BlockRef, len(earliest))
	named := make([]bool, len(earliest))
	ids := map[history.BlockRef]int32{}
	bind := func(id int32, b history.BlockRef) {
		if id < 0 || int(id) >= len(earliest) {
			t.Fatalf("%s: block %q has id %d outside [0, %d)", name, b, id, len(earliest))
		}
		if named[id] && names[id] != b {
			t.Fatalf("%s: id %d names both %q and %q", name, id, names[id], b)
		}
		if old, ok := ids[b]; ok && old != id {
			t.Fatalf("%s: block %q has ids %d and %d", name, b, old, id)
		}
		names[id], named[id], ids[b] = b, true, id
	}
	for i, r := range h.Reads() {
		if len(r.IDs) != len(r.Chain) || cap(r.IDs) != len(r.IDs) {
			t.Fatalf("%s: read %d: %d ids (cap %d) for a chain of %d", name, i, len(r.IDs), cap(r.IDs), len(r.Chain))
		}
		for k, b := range r.Chain {
			bind(r.IDs[k], b)
		}
	}
	for _, a := range h.Appends() {
		bind(a.ID, a.Block)
	}
	for _, op := range h.Ops() {
		if k := op.Label.Kind; k == history.KindAppend || k == history.KindUpdate {
			if _, ok := ids[op.Label.Block]; !ok {
				ids[op.Label.Block] = -1 // named only by updates or pending appends: its id is not exposed
			}
		}
	}
	if len(ids) != len(earliest) {
		t.Fatalf("%s: %d ids for %d distinct blocks", name, len(earliest), len(ids))
	}
	ref := refEarliest(h)
	for id, b := range names {
		want, ok := ref[b]
		if !ok {
			want = history.NotInserted
		}
		if named[id] && earliest[id] != want {
			t.Fatalf("%s: earliest insertion of %q (id %d) = %d, want %d", name, b, id, earliest[id], want)
		}
	}
}

// TestIndexMatchesMapReferences checks the analysis index against the
// map-based passes it replaced, on the differential histories (shared
// and cloned chains, each kind of injected read) and on each injection
// alone.
func TestIndexMatchesMapReferences(t *testing.T) {
	selectors := []blocktree.Selector{blocktree.LongestChain{}, blocktree.GHOST{}}
	for _, inj := range injections {
		for seed := uint64(0); seed <= 12; seed++ {
			w := newTwin()
			if seed > 0 {
				simulateTwin(w, seed, 4, 60, selectors[seed%2])
			}
			inj.add(w, 1000)
			shared, cloned := w.histories()
			for name, h := range map[string]*history.History{"shared": shared, "cloned": cloned} {
				checkIndex(t, inj.name+"/"+name, h)
				if seed == 0 && h.ReadsAgreeOnParents() != inj.agree {
					t.Fatalf("%s alone: ReadsAgreeOnParents = %v, want %v", inj.name, h.ReadsAgreeOnParents(), inj.agree)
				}
			}
		}
	}
}

// injectOutOfRangeProcs has processes -3 and 1<<30, outside
// [0, len(reads)) of any history (BlockValidity tracks no previous read
// for them), read views of one buffer and then roll back three blocks
// onto a fresh chain.
func injectOutOfRangeProcs(w *twin, t0 int64) {
	const far = history.ProcID(1 << 30)
	buf := history.Chain{blocktree.GenesisID, "o1", "o2", "o3", "o4"}
	w.at(t0)
	w.append(-3, "b0", "o1")
	w.append(-3, "o1", "o2")
	w.read(-3, buf[:3:3])
	w.at(t0 + 1)
	w.append(far, "o2", "o3")
	w.append(far, "o3", "o4")
	w.append(-3, "o1", "o5")
	w.read(far, buf[:5:5])
	w.read(-3, buf[:5:5])
	w.read(far, history.Chain{blocktree.GenesisID, "o1", "o5"})
}

// injectFreshBufferReorg has process 16 extend a view of one buffer, roll
// back two blocks onto a fresh buffer, extend that one in place, and roll
// back three blocks to the first buffer: the ids of every earlier view
// must survive each reorg.
func injectFreshBufferReorg(w *twin, t0 int64) {
	buf := history.Chain{blocktree.GenesisID, "f1", "f2", "f3", "f4"}
	w.at(t0)
	for i, b := range buf[1:] {
		w.append(16, buf[i], b)
	}
	w.append(16, "f2", "g3")
	w.append(16, "g3", "g4")
	w.append(16, "g4", "g5")
	w.at(t0 + 1)
	w.read(16, buf[:3:3])
	w.read(16, buf[:5:5])
	fork := append(make(history.Chain, 0, 8), blocktree.GenesisID, "f1", "f2", "g3")
	w.read(16, fork[:4:4])
	fork = append(fork, "g4", "g5")
	w.read(16, fork[:6:6])
	w.read(16, buf[:5:5])
}

// injectProcsDisagree has two processes read block x under different
// parents, each consistently: only the two processes together break the
// parent agreement.
func injectProcsDisagree(w *twin, t0 int64) {
	w.at(t0)
	w.read(17, history.Chain{blocktree.GenesisID, "d1", "x"})
	w.read(18, history.Chain{blocktree.GenesisID, "d2", "x"})
	w.read(17, history.Chain{blocktree.GenesisID, "d1", "x", "y"})
}

// TestIndexEdgeCases pins what the hand-built edge cases must give alone
// (the rollback depth, the parent agreement and Block validity) and the
// message for a read of a block that was never appended.
func TestIndexEdgeCases(t *testing.T) {
	alone := func(add func(*twin, int64)) *history.History {
		w := newTwin()
		add(w, 1)
		h, _ := w.histories()
		return h
	}
	for name, c := range map[string]struct {
		add   func(*twin, int64)
		reorg int
		agree bool
		valid bool
	}{
		"out-of-range-procs": {injectOutOfRangeProcs, 3, true, true},
		"fresh-buffer-reorg": {injectFreshBufferReorg, 3, true, true},
		"procs-disagree":     {injectProcsDisagree, 0, false, false},
		"empty-chain":        {injectEmptyChain, 1, true, true},
	} {
		h := alone(c.add)
		if got := h.MaxReorg(); got != c.reorg {
			t.Errorf("%s: MaxReorg = %d, want %d", name, got, c.reorg)
		}
		if got := h.ReadsAgreeOnParents(); got != c.agree {
			t.Errorf("%s: ReadsAgreeOnParents = %v, want %v", name, got, c.agree)
		}
		if got := BlockValidity(h, Options{}).Satisfied; got != c.valid {
			t.Errorf("%s: BlockValidity satisfied = %v, want %v", name, got, c.valid)
		}
	}
	bv := BlockValidity(alone(injectViolations), Options{})
	want := "read by p8 returned b0⌢v1⌢ghost containing ghost, never appended"
	if !slices.Contains(bv.Violations, want) {
		t.Errorf("BlockValidity violations %q lack %q", bv.Violations, want)
	}
}
