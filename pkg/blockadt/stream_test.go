package blockadt

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// streamTestMatrix is small but multi-dimensional: pruned combinations,
// two seeds, 18 configs. Systems are pinned explicitly so registrations
// made by other tests (TestUserRegistrationExtends) cannot change the
// matrix under us.
func streamTestMatrix() Matrix {
	return Matrix{
		Systems:      []string{"Bitcoin", "Ethereum", "Algorand", "ByzCoin", "PeerCensus", "RedBelly", "Hyperledger"},
		Links:        []string{LinkSync, LinkAsync},
		Adversaries:  []string{AdvNone, AdvSelfish},
		Seeds:        2,
		TargetBlocks: 15,
	}
}

// TestStreamMatchesRun asserts that the streaming API at a real worker
// count, and Run collecting it, yield exactly the results of running
// each expanded scenario serially through RunScenario, in
// matrix-expansion order.
func TestStreamMatchesRun(t *testing.T) {
	m := streamTestMatrix()
	configs, err := m.Configs()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Result, len(configs))
	for i, cfg := range configs {
		if want[i], err = RunScenario(cfg); err != nil {
			t.Fatal(err)
		}
	}
	var streamed []Result
	for r, err := range Stream(context.Background(), m, 4) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, r)
	}
	rep, err := Run(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]Result{"Stream": streamed, "Run": rep.Results} {
		if len(got) != len(want) {
			t.Fatalf("%s produced %d results, want %d", name, len(got), len(want))
		}
		for i := range got {
			a, b := got[i], want[i]
			a.WallNS, b.WallNS = 0, 0
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s result %d differs:\ngot:  %+v\nwant: %+v", name, i, a, b)
			}
		}
	}
	if rep.Total != len(want) {
		t.Fatalf("Run reports Total %d, want %d", rep.Total, len(want))
	}
}

// TestStreamExpansionError surfaces a bad matrix as the first yielded
// error.
func TestStreamExpansionError(t *testing.T) {
	var n int
	for _, err := range Stream(context.Background(), Matrix{Systems: []string{"Dogecoin"}}, 1) {
		n++
		if err == nil {
			t.Fatal("expected an expansion error")
		}
	}
	if n != 1 {
		t.Fatalf("iterator yielded %d pairs after the error, want exactly 1", n)
	}
}

// TestStreamEarlyBreak stops consuming mid-sweep; the iterator must
// return without deadlocking and without running the remaining scenarios
// on the consumer's behalf.
func TestStreamEarlyBreak(t *testing.T) {
	var n int
	for _, err := range Stream(context.Background(), streamTestMatrix(), 4) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n == 3 {
			break
		}
	}
	if n != 3 {
		t.Fatalf("consumed %d results, want 3", n)
	}
}

// TestStreamCancellation cancels the context mid-iteration and expects
// the iterator to surface ctx.Err and stop.
func TestStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var results, errs int
	for _, err := range Stream(ctx, streamTestMatrix(), 2) {
		if err != nil {
			errs++
			continue
		}
		results++
		cancel()
	}
	if errs != 1 {
		t.Fatalf("saw %d errors after cancellation, want 1", errs)
	}
	if results == 0 {
		t.Fatal("cancelled before any result was yielded")
	}
}

// TestRunEmptyExpansion: a matrix whose every combination is pruned
// still reports an empty results array, not a null one.
func TestRunEmptyExpansion(t *testing.T) {
	rep, err := Run(Matrix{Systems: []string{"Hyperledger"}, Links: []string{LinkAsync}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := rep.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 0 || !strings.Contains(string(enc), `"results": []`) {
		t.Fatalf("empty sweep encoded as %s", enc)
	}
}
