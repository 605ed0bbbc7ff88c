//go:build !race

// The race detector makes sync.Pool drop released buffers at random, so
// the reuse this file pins holds only without it.

package history

import (
	"fmt"
	"runtime"
	"testing"
)

// TestReserveAfterReleaseAllocs pins the recycling: once a history of the
// reserved size has been released, Reserve on a fresh recorder takes its
// op buffer and response chunk instead of allocating them. What remains
// per cycle is the History that Finalize returns and the pool entry that
// Release fills, never the buffers themselves.
func TestReserveAfterReleaseAllocs(t *testing.T) {
	const reserve = 4096
	r := NewRecorder()
	r.Reserve(reserve)
	r.Finalize().Release()
	chain := chainOf("b0", "1")
	allocs := testing.AllocsPerRun(100, func() {
		r.Reserve(reserve)
		r.Record(0, Label{Kind: KindUpdate, Block: "1", Parent: "b0"})
		id := r.Invoke(0, Label{Kind: KindRead})
		r.Respond(id, Label{Kind: KindRead, Chain: chain})
		r.Finalize().Release()
	})
	if allocs > 2 {
		t.Fatalf("Reserve+Finalize+Release allocated %.1f objects per cycle, want 2 (History and pool entry)", allocs)
	}
}

// recordChains records a replica-shaped history: three processes append
// blocks to one main chain, each append is applied by an update at every
// process, and the processes read the chain through ChainBuf buffers as
// the read path does, extending their previous read in place, starting a
// fresh buffer when it is full, and every 20 steps rolling back onto a
// one-block fork. Two calls with different tags record the same shape
// under different block names.
func recordChains(r *Recorder, tag string) {
	const procs, steps = 3, 240
	main := Chain{"b0"}
	var bufs [procs]Chain
	for i := 1; i <= steps; i++ {
		p := ProcID(i % procs)
		b := BlockRef(fmt.Sprint(tag, i))
		id := r.Invoke(p, Label{Kind: KindAppend, Block: b})
		r.Respond(id, Label{Kind: KindAppend, Block: b, Parent: main[len(main)-1], OK: true})
		for q := ProcID(0); q < procs; q++ {
			r.Record(q, Label{Kind: KindUpdate, Block: b, Parent: main[len(main)-1], Origin: p})
		}
		main = append(main, b)
		c := bufs[p]
		switch {
		case i%20 == 0:
			fork := BlockRef(fmt.Sprint(tag, "f", i))
			r.Record(p, Label{Kind: KindUpdate, Block: fork, Parent: main[len(main)-2], Origin: p})
			c = append(append(r.ChainBuf(len(main)+16), main[:len(main)-1]...), fork)
		case len(c) > 0 && c[len(c)-1] != main[len(c)-1]:
			c = append(r.ChainBuf(len(main)+16), main...)
		case len(main) > cap(c):
			c = append(r.ChainBuf(len(main)+16), c...)
			c = append(c, main[len(c):]...)
		default:
			c = append(c, main[len(c):]...)
		}
		bufs[p] = c
		id = r.Invoke(p, Label{Kind: KindRead})
		r.Respond(id, Label{Kind: KindRead, Chain: c[:len(c):len(c)]})
	}
}

// nameMapSink keeps TestIndexAfterReleaseAllocs's reference map on the
// heap: a map that does not escape keeps its header on the stack.
var nameMapSink map[BlockRef]int32

// TestIndexAfterReleaseAllocs pins the recycled index: once histories of
// one shape have been recorded, indexed and released, building the index
// of the next same-shape history allocates only the interner's name map
// — its views, earliest times, parent table, per-process state and id
// buffers all come from the released history's buffers. An index buffer
// taken fresh instead of from the recycled ones fails the bound. The
// reference is the allocation count of a map built with the interner's
// size hint and filled with the history's block names.
func TestIndexAfterReleaseAllocs(t *testing.T) {
	const reserve = 4096
	r := NewRecorder()
	// The id arena grows geometrically and only its last chunk is
	// recycled, so the warm-up runs until that chunk holds a whole
	// history.
	for i := 0; i < 3; i++ {
		r.Reserve(reserve)
		recordChains(r, "old")
		h := r.Finalize()
		h.Reads()
		h.Release()
	}
	r.Reserve(reserve)
	recordChains(r, "new")
	h := r.Finalize()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reads := h.Reads()
	runtime.ReadMemStats(&after)
	got := after.Mallocs - before.Mallocs

	var names []BlockRef
	seen := map[BlockRef]bool{}
	note := func(b BlockRef) {
		if !seen[b] {
			seen[b] = true
			names = append(names, b)
		}
	}
	for _, op := range h.Ops() {
		if op.Label.Kind == KindAppend || op.Label.Kind == KindUpdate {
			note(op.Label.Block)
		}
	}
	for _, rd := range reads {
		for _, b := range rd.Chain {
			note(b)
		}
	}
	hint := len(h.Appends())
	want := testing.AllocsPerRun(10, func() {
		m := make(map[BlockRef]int32, hint)
		for _, b := range names {
			if _, ok := m[b]; !ok {
				m[b] = int32(len(m))
			}
		}
		nameMapSink = m // on the heap, as the interner's map is
	})
	if len(reads) == 0 || h.MaxReorg() != 1 || len(h.Earliest()) != len(names) {
		t.Fatalf("the history has %d reads, rollback depth %d and %d block ids, want reads, 1 and %d", len(reads), h.MaxReorg(), len(h.Earliest()), len(names))
	}
	if float64(got) > want {
		t.Fatalf("building a recycled index allocated %d objects, want at most the name map's %.0f", got, want)
	}
}
