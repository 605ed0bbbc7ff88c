package history

import "testing"

// TestRecorderAllocs pins the recorder's append path: once Reserve has
// sized the op buffer and the response-label slab, Invoke, Respond and
// Record store one Op each and allocate nothing. Storing events beside
// the ops, or a heap label per response, fails it.
func TestRecorderAllocs(t *testing.T) {
	r := NewRecorder()
	r.Reserve(1024)
	chain := chainOf("b0", "1")
	allocs := testing.AllocsPerRun(200, func() {
		id := r.Invoke(0, Label{Kind: KindRead})
		r.Respond(id, Label{Kind: KindRead, Chain: chain})
		r.Record(1, Label{Kind: KindUpdate, Block: "1", Parent: "b0", Origin: 1})
	})
	if allocs != 0 {
		t.Fatalf("Invoke+Respond+Record allocated %.1f objects, want 0", allocs)
	}
}
