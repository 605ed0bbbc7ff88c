package parallel

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestStreamMatchesMap pins the ordering and exactly-once contract: the
// streamed sequence equals Map's output at any worker count.
func TestStreamMatchesMap(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	square := func(_ int, v int) int { return v * v }
	want := Map(items, 1, square)
	for _, workers := range []int{1, 3, 16, 200} {
		var gotIdx, n int
		for i, r := range Stream(context.Background(), items, workers, square) {
			if i != gotIdx {
				t.Fatalf("workers=%d: yielded index %d, want %d (order broken)", workers, i, gotIdx)
			}
			if r != want[i] {
				t.Fatalf("workers=%d: item %d yielded %d, want %d", workers, i, r, want[i])
			}
			gotIdx++
			n++
		}
		if n != len(items) {
			t.Fatalf("workers=%d: yielded %d results, want %d", workers, n, len(items))
		}
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
