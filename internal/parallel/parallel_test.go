package parallel

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestStreamMatchesMap pins the ordering and exactly-once contract: at
// any worker count, the streamed sequence equals applying the function
// to each item serially, in input order.
func TestStreamMatchesMap(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	square := func(_ int, v int) int { return v * v }
	want := make([]int, len(items))
	for i, v := range items {
		want[i] = square(i, v)
	}
	for _, workers := range []int{0, 1, 2, 3, 7, 16, 200, runtime.NumCPU()} {
		var n int
		for i, r := range Stream(context.Background(), items, workers, square) {
			if i != n {
				t.Fatalf("workers=%d: yielded index %d, want %d (order broken)", workers, i, n)
			}
			if r != want[i] {
				t.Fatalf("workers=%d: item %d yielded %d, want %d", workers, i, r, want[i])
			}
			n++
		}
		if n != len(items) {
			t.Fatalf("workers=%d: yielded %d results, want %d", workers, n, len(items))
		}
	}
}

// TestMapPreservesOrder collects Stream into a slice, the way the sweep
// callers use it as an ordered map, while the earliest items finish last:
// each slot must still hold its own item's result at every worker count.
func TestMapPreservesOrder(t *testing.T) {
	const n = 24
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	slowFirst := func(i int, v int) int {
		time.Sleep(time.Duration(n-i) * 50 * time.Microsecond)
		return v * v
	}
	for _, workers := range []int{1, 2, 7, runtime.NumCPU(), 0} {
		got := make([]int, 0, n)
		for _, r := range Stream(context.Background(), items, workers, slowFirst) {
			got = append(got, r)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: collected %d results, want %d", workers, len(got), n)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestStreamRunsEachItemOnce(t *testing.T) {
	const n = 500
	var calls [n]int64
	items := make([]int, n)
	for range Stream(context.Background(), items, 8, func(i int, _ int) struct{} {
		atomic.AddInt64(&calls[i], 1)
		return struct{}{}
	}) {
	}
	for i, c := range calls {
		if c != 1 {
			t.Fatalf("item %d ran %d times", i, c)
		}
	}
}

// TestStreamBoundsConcurrency: however far the reorder window reaches
// ahead of the consumer, no more than workers calls run at once.
func TestStreamBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak int64
	items := make([]int, 64)
	for range Stream(context.Background(), items, workers, func(int, int) struct{} {
		n := atomic.AddInt64(&cur, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		atomic.AddInt64(&cur, -1)
		return struct{}{}
	}) {
	}
	if peak > workers {
		t.Fatalf("observed %d concurrent workers, limit %d", peak, workers)
	}
}

func TestWorkersClamp(t *testing.T) {
	if w := Workers(0); w != runtime.NumCPU() {
		t.Fatalf("Workers(0) = %d, want NumCPU", w)
	}
	if w := Workers(-2); w != runtime.NumCPU() {
		t.Fatalf("Workers(-2) = %d, want NumCPU", w)
	}
	if w := Workers(3); w != 3 {
		t.Fatalf("Workers(3) = %d", w)
	}
}

// slowCall is a Stream fn that counts the calls in progress, so a test
// can check that none outlives the iteration.
func slowCall(active *atomic.Int64) func(int, int) int {
	return func(i int, _ int) int {
		active.Add(1)
		defer active.Add(-1)
		time.Sleep(time.Millisecond)
		return i
	}
}

// TestStreamEarlyBreak verifies breaking out of the iteration returns
// promptly (no deadlock on the gate/jobs channels) and only after every
// dispatched call has finished.
func TestStreamEarlyBreak(t *testing.T) {
	items := make([]int, 1000)
	var active atomic.Int64
	done := make(chan int64)
	go func() {
		n := 0
		for range Stream(context.Background(), items, 4, slowCall(&active)) {
			n++
			if n == 5 {
				break
			}
		}
		done <- active.Load()
	}()
	select {
	case running := <-done:
		if running != 0 {
			t.Fatalf("%d calls still running after the early break returned", running)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("early break deadlocked")
	}
}

// TestStreamCancellation verifies a cancelled context stops the sequence.
func TestStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	items := make([]int, 1000)
	var active atomic.Int64
	n := 0
	for range Stream(ctx, items, 4, slowCall(&active)) {
		n++
		if n == 10 {
			cancel()
		}
	}
	if n >= len(items) {
		t.Fatal("cancellation did not stop the stream")
	}
	if running := active.Load(); running != 0 {
		t.Fatalf("%d calls still running after the cancelled stream returned", running)
	}
}

// TestStreamEmpty covers the zero-item edge.
func TestStreamEmpty(t *testing.T) {
	for range Stream(context.Background(), nil, 4, func(int, int) int { return 0 }) {
		t.Fatal("empty input yielded a result")
	}
}
