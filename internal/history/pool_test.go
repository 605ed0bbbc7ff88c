//go:build !race

// The race detector makes sync.Pool drop released buffers at random, so
// the reuse this file pins holds only without it.

package history

import "testing"

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
