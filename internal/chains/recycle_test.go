package chains_test

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"blockadt/internal/chains"
	"blockadt/internal/consistency"
	"blockadt/internal/history"
	"blockadt/pkg/blockadt"
)

// recycleOutcome is what a run hands on once its trees are released: the
// recorded ops, the tree counters and the classified level.
type recycleOutcome struct {
	ops    []history.Op
	blocks int
	forks  int
	ticks  int64
	level  consistency.Level
}

func recycleRun(sys chains.System, blocks int) recycleOutcome {
	// A 600-block run takes about 7,500 ticks; the cap ends a run that
	// cannot grow its chain (a reused tree that is not empty) quickly.
	p := chains.Params{N: 8, TargetBlocks: blocks, Seed: 42, MaxTicks: 1 << 15}
	res := sys.Run(p)
	cls := res.Classify(chains.Options(p, res.History))
	return recycleOutcome{ops: res.History.Ops(), blocks: res.Blocks, forks: res.Forks, ticks: res.Ticks, level: cls.Level}
}

// freshRecycleRun runs on trees built from scratch: two collections empty
// the tree pool, and a run builds all its trees before it releases any.
func freshRecycleRun(sys chains.System, blocks int) recycleOutcome {
	runtime.GC()
	runtime.GC()
	return recycleRun(sys, blocks)
}

// TestRecycledTreesAreInvisible: a run whose replicas reuse the trees an
// earlier run released (blocktree.Tree.Release, blocktree.NewCap) records
// the same history, counters and level as the same run on fresh trees.
// Each system runs 600 blocks, then 30, then 600 again, back to back and
// after the previous system: the first 600-block run finds the fresh
// 30-block reference's slabs in the pool, too small to reuse; the 30-block
// run reuses a 600-block slab; the last run reuses the slabs of a run of
// the same seed, whose block names its own repeat, so an index left
// uncleared reports them as duplicates. Then the CI matrix is run at
// parallelism 2, where released trees cross workers, and must equal the
// parallelism-1 report byte for byte.
func TestRecycledTreesAreInvisible(t *testing.T) {
	systems := []chains.System{chains.Bitcoin, chains.Ethereum, chains.Algorand}
	type refs struct{ long, short recycleOutcome }
	fresh := make([]refs, len(systems))
	for i, sys := range systems {
		fresh[i] = refs{long: freshRecycleRun(sys, 600), short: freshRecycleRun(sys, 30)}
	}
	for i, sys := range systems {
		for step, blocks := range []int{600, 30, 600} {
			want := fresh[i].long
			if blocks == 30 {
				want = fresh[i].short
			}
			got := recycleRun(sys, blocks)
			if got.blocks != want.blocks || got.forks != want.forks || got.ticks != want.ticks || got.level != want.level {
				t.Errorf("%s step %d (%d blocks): blocks/forks/ticks/level %d/%d/%d/%s, fresh trees give %d/%d/%d/%s",
					sys.Name, step, blocks, got.blocks, got.forks, got.ticks, got.level, want.blocks, want.forks, want.ticks, want.level)
			}
			if !reflect.DeepEqual(got.ops, want.ops) {
				t.Errorf("%s step %d (%d blocks): the history differs from a run on fresh trees (%d ops, fresh %d)",
					sys.Name, step, blocks, len(got.ops), len(want.ops))
			}
		}
	}
	if t.Failed() {
		return
	}

	m := blockadt.Matrix{
		Links:       []string{"sync", "async", "psync", "lossy", "partition", "jitter"},
		Adversaries: []string{"none", "selfish"},
		Ns:          []int{8}, Seeds: 2, RootSeed: 42, TargetBlocks: 30,
		Metrics: blockadt.MetricNames(),
	}
	var reports [2][]byte
	for i, par := range []int{1, 2} {
		rep, err := blockadt.Run(m, par)
		if err != nil {
			t.Fatal(err)
		}
		if reports[i], err = rep.EncodeJSON(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Error("the CI matrix at parallelism 2 differs from parallelism 1")
	}
}
