package history

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func chainOf(ids ...string) Chain {
	c := make(Chain, len(ids))
	for i, s := range ids {
		c[i] = BlockRef(s)
	}
	return c
}

func TestChainHasPrefix(t *testing.T) {
	c := chainOf("b0", "1", "2", "3")
	cases := []struct {
		prefix Chain
		want   bool
	}{
		{chainOf(), true},
		{chainOf("b0"), true},
		{chainOf("b0", "1"), true},
		{chainOf("b0", "1", "2", "3"), true},
		{chainOf("b0", "2"), false},
		{chainOf("b0", "1", "2", "3", "4"), false},
		{chainOf("1"), false},
	}
	for _, tc := range cases {
		if got := c.HasPrefix(tc.prefix); got != tc.want {
			t.Errorf("HasPrefix(%v) = %v, want %v", tc.prefix, got, tc.want)
		}
	}
}

func TestChainCommonPrefix(t *testing.T) {
	a := chainOf("b0", "1", "2", "3")
	b := chainOf("b0", "1", "9")
	cp := a.CommonPrefix(b)
	if cp.String() != "b0⌢1" {
		t.Fatalf("common prefix = %s, want b0⌢1", cp)
	}
	if got := a.CommonPrefix(a); len(got) != len(a) {
		t.Fatalf("self common prefix length = %d, want %d", len(got), len(a))
	}
	if got := a.CommonPrefix(chainOf("x")); len(got) != 0 {
		t.Fatalf("disjoint common prefix length = %d, want 0", len(got))
	}
}

func TestChainString(t *testing.T) {
	if got := chainOf("b0", "b1", "b2").String(); got != "b0⌢b1⌢b2" {
		t.Fatalf("String() = %q, want %q", got, "b0⌢b1⌢b2")
	}
	if got := chainOf().String(); got != "" {
		t.Fatalf("empty chain String() = %q, want empty", got)
	}
}

// TestProperty_PrefixOpsSharedViewsMatchClones: HasPrefix and
// CommonPrefix give the same answers on views of one buffer (the O(1)
// same-start case), on views of two buffers with the same contents, and
// on independent clones.
func TestProperty_PrefixOpsSharedViewsMatchClones(t *testing.T) {
	f := func(v []uint8, x, y uint8) bool {
		buf := make(Chain, len(v))
		for k, x := range v {
			buf[k] = BlockRef(string(rune('a' + x%3)))
		}
		other := buf.Clone()
		i, j := int(x)%(len(v)+1), int(y)%(len(v)+1)
		a, b := buf[:i:i], buf[:j:j]
		pairs := [][2]Chain{{a, b}, {a, other[:j:j]}, {a.Clone(), b.Clone()}}
		for _, p := range pairs {
			if p[0].HasPrefix(p[1]) != (j <= i) || p[1].HasPrefix(p[0]) != (i <= j) {
				return false
			}
			if len(p[0].CommonPrefix(p[1])) != min(i, j) {
				return false
			}
		}
		// A clone whose contents differ after position 0 breaks the
		// prefix relation wherever the lengths let it show.
		if j > 1 && i >= j {
			d := b.Clone()
			d[j-1] = "z"
			if a.HasPrefix(d) || len(a.CommonPrefix(d)) != j-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestChainClone(t *testing.T) {
	a := chainOf("b0", "1")
	b := a.Clone()
	b[1] = "2"
	if a[1] != "1" {
		t.Fatal("Clone aliases the original")
	}
}

// TestProperty_CommonPrefixIsPrefixOfBoth: the common prefix prefixes both
// inputs and is maximal (extending it by one block breaks the property).
func TestProperty_CommonPrefixIsPrefixOfBoth(t *testing.T) {
	f := func(a, b []uint8) bool {
		ca := make(Chain, len(a))
		for i, v := range a {
			ca[i] = BlockRef(string(rune('a' + v%4)))
		}
		cb := make(Chain, len(b))
		for i, v := range b {
			cb[i] = BlockRef(string(rune('a' + v%4)))
		}
		cp := ca.CommonPrefix(cb)
		if !ca.HasPrefix(cp) || !cb.HasPrefix(cp) {
			return false
		}
		// Maximality.
		if len(cp) < len(ca) && len(cp) < len(cb) && ca[len(cp)] == cb[len(cp)] {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestProperty_PrefixUltrametric: lcp(a,c) ≥ min(lcp(a,b), lcp(b,c)), the
// inequality the EventualPrefix checker's suffix optimization relies on.
func TestProperty_PrefixUltrametric(t *testing.T) {
	mk := func(v []uint8) Chain {
		c := make(Chain, len(v))
		for i, x := range v {
			c[i] = BlockRef(string(rune('a' + x%3)))
		}
		return c
	}
	f := func(a, b, c []uint8) bool {
		ca, cb, cc := mk(a), mk(b), mk(c)
		lab := len(ca.CommonPrefix(cb))
		lbc := len(cb.CommonPrefix(cc))
		lac := len(ca.CommonPrefix(cc))
		minv := lab
		if lbc < minv {
			minv = lbc
		}
		return lac >= minv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderBasicOps(t *testing.T) {
	r := NewRecorder()
	id := r.Invoke(0, Label{Kind: KindRead})
	r.Respond(id, Label{Kind: KindRead, Chain: chainOf("b0", "1")})
	r.Record(1, Label{Kind: KindSend, Block: "1", Parent: "b0", Origin: 1})
	h := r.Snapshot()

	if h.Len() != 4 {
		t.Fatalf("events = %d, want 4 (inv+rsp, send collapsed pair)", h.Len())
	}
	reads := h.Reads()
	if len(reads) != 1 {
		t.Fatalf("reads = %d, want 1", len(reads))
	}
	if reads[0].Chain.String() != "b0⌢1" {
		t.Fatalf("read chain = %s", reads[0].Chain)
	}
	sends := h.OpsOfKind(KindSend)
	if len(sends) != 1 || sends[0].Label.Origin != 1 {
		t.Fatalf("sends = %+v", sends)
	}
}

func TestRecorderPendingOperation(t *testing.T) {
	r := NewRecorder()
	r.Invoke(0, Label{Kind: KindAppend, Block: "1"})
	h := r.Snapshot()
	if got := len(h.Appends()); got != 0 {
		t.Fatalf("incomplete append counted: %d", got)
	}
	ops := h.Ops()
	if len(ops) != 1 || ops[0].Complete {
		t.Fatalf("ops = %+v", ops)
	}
}

func TestSuccessfulAppendsPurge(t *testing.T) {
	r := NewRecorder()
	a := r.Invoke(0, Label{Kind: KindAppend, Block: "x"})
	r.Respond(a, Label{Kind: KindAppend, Block: "x", OK: false})
	b := r.Invoke(0, Label{Kind: KindAppend, Block: "y"})
	r.Respond(b, Label{Kind: KindAppend, Block: "y", OK: true})
	h := r.Snapshot()
	if got := len(h.Appends()); got != 2 {
		t.Fatalf("appends = %d, want 2", got)
	}
	ok := h.SuccessfulAppends()
	if len(ok) != 1 || ok[0].Block != "y" {
		t.Fatalf("successful appends = %+v", ok)
	}
}

func TestOrders(t *testing.T) {
	r := NewRecorder()
	op1 := r.Invoke(0, Label{Kind: KindRead})
	r.Respond(op1, Label{Kind: KindRead, Chain: chainOf("b0")})
	op2 := r.Invoke(1, Label{Kind: KindRead})
	r.Respond(op2, Label{Kind: KindRead, Chain: chainOf("b0")})
	h := r.Snapshot()
	ev := h.Events()

	// Process order: events 0,1 belong to proc 0; 2,3 to proc 1.
	if !ProcessOrdered(ev[0], ev[1]) {
		t.Fatal("invocation should process-precede own response")
	}
	if ProcessOrdered(ev[0], ev[2]) {
		t.Fatal("different processes are never process-ordered")
	}
	// Operation order: inv ≺ rsp of same op; rsp(op1) ≺ inv(op2) since
	// op1 responded before op2 was invoked.
	if !OperationOrdered(ev[0], ev[1]) {
		t.Fatal("inv should operation-precede its response")
	}
	if !OperationOrdered(ev[1], ev[2]) {
		t.Fatal("earlier response should operation-precede later invocation")
	}
	if OperationOrdered(ev[2], ev[1]) {
		t.Fatal("operation order must not be symmetric")
	}
	// Program order is their union.
	if !ProgramOrdered(ev[0], ev[1]) || !ProgramOrdered(ev[1], ev[2]) {
		t.Fatal("program order must contain both orders")
	}

	ops := h.Ops()
	if !RespondedBefore(ops[0], ops[1]) {
		t.Fatal("op1 responded before op2 invoked")
	}
	if RespondedBefore(ops[1], ops[0]) {
		t.Fatal("RespondedBefore must not be symmetric")
	}
}

func TestRecorderConcurrentSafety(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	const procs, opsPerProc = 8, 50
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p ProcID) {
			defer wg.Done()
			for i := 0; i < opsPerProc; i++ {
				id := r.Invoke(p, Label{Kind: KindRead})
				r.Respond(id, Label{Kind: KindRead, Chain: chainOf("b0")})
			}
		}(ProcID(p))
	}
	wg.Wait()
	h := r.Snapshot()
	if got := len(h.Reads()); got != procs*opsPerProc {
		t.Fatalf("reads = %d, want %d", got, procs*opsPerProc)
	}
	// Per-process invariants: events strictly ordered, times
	// non-decreasing.
	last := map[ProcID]int{}
	for _, e := range h.Events() {
		if prev, ok := last[e.Proc]; ok && e.Seq <= prev {
			t.Fatal("per-process sequence not increasing")
		}
		last[e.Proc] = e.Seq
	}
}

func TestSnapshotIsImmutable(t *testing.T) {
	r := NewRecorder()
	id := r.Invoke(0, Label{Kind: KindRead})
	h1 := r.Snapshot()
	r.Respond(id, Label{Kind: KindRead, Chain: chainOf("b0")})
	if h1.Ops()[0].Complete {
		t.Fatal("snapshot mutated by later Respond")
	}
	h2 := r.Snapshot()
	if !h2.Ops()[0].Complete {
		t.Fatal("second snapshot missing the response")
	}
}

func TestKindString(t *testing.T) {
	if KindRead.String() != "read" || KindConsumeToken.String() != "consumeToken" {
		t.Fatal("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind must render something")
	}
}

// stepClock is a deterministic Clock the reference log can follow: each
// Now returns the next integer.
type stepClock struct{ t int64 }

func (c *stepClock) Now() int64 { c.t++; return c.t }

// TestDerivedEventsMatchRecordedLog drives a recorder with a random mix
// of Invoke, Respond and Record across 4 processes, leaving some ops
// pending, and keeps the event log an event-storing recorder would have
// written. The events History derives from its ops must equal that log.
func TestDerivedEventsMatchRecordedLog(t *testing.T) {
	clk := &stepClock{}
	r := NewRecorderWithClock(clk)
	rng := rand.New(rand.NewSource(7))
	var ref []Event
	var pending []OpID
	procOf := map[OpID]ProcID{}
	nextOp := OpID(0)
	kinds := []Kind{KindRead, KindAppend, KindGetToken, KindConsumeToken}
	step := func(i int) {
		p := ProcID(rng.Intn(4))
		switch c := rng.Intn(3); {
		case c == 0 || (c == 1 && len(pending) == 0):
			l := Label{Kind: kinds[rng.Intn(len(kinds))], Block: BlockRef(fmt.Sprint("b", i))}
			id := r.Invoke(p, l)
			if id != nextOp {
				t.Fatalf("Invoke returned op %d, want %d", id, nextOp)
			}
			ref = append(ref, Event{Seq: len(ref), Type: Invocation, Proc: p, Op: id, Label: l, Time: clk.t})
			pending = append(pending, id)
			procOf[id] = p
			nextOp++
		case c == 1:
			k := rng.Intn(len(pending))
			id := pending[k]
			pending = append(pending[:k], pending[k+1:]...)
			l := Label{Kind: KindRead, Chain: chainOf("b0", fmt.Sprint("r", i)), OK: i%2 == 0, Token: uint64(i)}
			r.Respond(id, l)
			ref = append(ref, Event{Seq: len(ref), Type: Response, Proc: procOf[id], Op: id, Label: l, Time: clk.t})
		default:
			l := Label{Kind: KindSend, Block: BlockRef(fmt.Sprint("s", i)), Parent: "b0", Origin: p}
			r.Record(p, l)
			ref = append(ref,
				Event{Seq: len(ref), Type: Invocation, Proc: p, Op: nextOp, Label: l, Time: clk.t - 1},
				Event{Seq: len(ref) + 1, Type: Response, Proc: p, Op: nextOp, Label: l, Time: clk.t})
			nextOp++
		}
	}
	check := func(what string, h *History, want []Event) {
		t.Helper()
		got := h.Events()
		if len(got) != len(want) || h.Len() != len(want) {
			t.Fatalf("%s: Events() has %d, Len() %d, want %d", what, len(got), h.Len(), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: event %d = %+v, want %+v", what, i, got[i], want[i])
			}
		}
	}

	for i := 0; i < 150; i++ {
		step(i)
	}
	mid := r.Snapshot()
	midRef := slices.Clone(ref)
	for i := 150; i < 300; i++ {
		step(i)
	}
	if len(pending) == 0 {
		t.Fatal("the run left no op pending; pick another seed")
	}
	check("snapshot after more recording", mid, midRef)
	check("snapshot", r.Snapshot(), ref)
	h := r.Finalize()
	check("finalized", h, ref)

	id := r.Invoke(0, Label{Kind: KindRead})
	if id != 0 {
		t.Fatalf("first op after Finalize = %d, want 0", id)
	}
	if ev := r.Snapshot().Events(); len(ev) != 1 || ev[0].Seq != 0 || ev[0].Op != 0 {
		t.Fatalf("events after Finalize = %+v, want one at Seq 0", ev)
	}
	check("finalized after reuse", h, ref)
}

// TestOpsOfKindExcludesPending: an invoked but never answered operation
// is not a completed one.
func TestOpsOfKindExcludesPending(t *testing.T) {
	r := NewRecorder()
	r.Invoke(0, Label{Kind: KindSend, Block: "1"})
	r.Record(1, Label{Kind: KindSend, Block: "2"})
	h := r.Snapshot()
	sends := h.OpsOfKind(KindSend)
	if len(sends) != 1 || sends[0].Label.Block != "2" || !sends[0].Complete {
		t.Fatalf("OpsOfKind(send) = %+v, want only the recorded send", sends)
	}
}

// TestViewsPointIntoOps: Reads and Appends hold pointers into the
// history's own ops, and every view is allocated at its exact size.
func TestViewsPointIntoOps(t *testing.T) {
	r := NewRecorder()
	rng := rand.New(rand.NewSource(3))
	var pending []OpID
	for i := 0; i < 200; i++ {
		p := ProcID(i % 4)
		switch rng.Intn(4) {
		case 0:
			pending = append(pending, r.Invoke(p, Label{Kind: KindRead}))
		case 1:
			pending = append(pending, r.Invoke(p, Label{Kind: KindAppend, Block: BlockRef(fmt.Sprint("b", i))}))
		case 2:
			if len(pending) > 0 {
				k := rng.Intn(len(pending))
				r.Respond(pending[k], Label{Kind: KindRead, Chain: chainOf("b0"), OK: i%3 != 0})
				pending = append(pending[:k], pending[k+1:]...)
			}
		default:
			r.Record(p, Label{Kind: KindUpdate, Block: BlockRef(fmt.Sprint("u", i))})
		}
	}
	h := r.Finalize()
	ops := h.Ops()
	reads, appends := h.Reads(), h.Appends()
	if len(reads) == 0 || len(appends) == 0 || len(pending) == 0 {
		t.Fatalf("degenerate history: %d reads, %d appends, %d pending", len(reads), len(appends), len(pending))
	}
	for _, rd := range reads {
		if rd.Op != &ops[rd.Op.ID] {
			t.Fatalf("read view of op %d does not point into Ops()", rd.Op.ID)
		}
	}
	for _, a := range appends {
		if a.Op != &ops[a.Op.ID] {
			t.Fatalf("append view of op %d does not point into Ops()", a.Op.ID)
		}
	}
	caps := map[string][2]int{
		"Reads":             {len(reads), cap(reads)},
		"Appends":           {len(appends), cap(appends)},
		"SuccessfulAppends": {len(h.SuccessfulAppends()), cap(h.SuccessfulAppends())},
		"OpsOfKind(update)": {len(h.OpsOfKind(KindUpdate)), cap(h.OpsOfKind(KindUpdate))},
		"OpsOfKind(read)":   {len(h.OpsOfKind(KindRead)), cap(h.OpsOfKind(KindRead))},
	}
	for name, lc := range caps {
		if lc[0] != lc[1] {
			t.Errorf("%s: len %d, cap %d, want equal", name, lc[0], lc[1])
		}
	}
}

// TestRecordResultIsOwnLabel: an instantaneous op stores no response
// label; Result answers with its own Label, in the recorder's history and
// in a snapshot, while Invoke/Respond ops answer with their response and
// a pending op with nil.
func TestRecordResultIsOwnLabel(t *testing.T) {
	r := NewRecorder()
	l := Label{Kind: KindUpdate, Block: "1", Parent: "b0", Origin: 2}
	r.Record(2, l)
	id := r.Invoke(0, Label{Kind: KindAppend, Block: "2"})
	r.Respond(id, Label{Kind: KindAppend, Block: "2", Parent: "1", OK: true})
	r.Invoke(1, Label{Kind: KindRead})
	snap := r.Snapshot()
	for _, h := range []*History{snap, r.Finalize()} {
		ops := h.Ops()
		if ops[0].Response != nil || ops[0].Result() != &ops[0].Label || !reflect.DeepEqual(*ops[0].Result(), l) {
			t.Fatalf("Record op: Response %v, Result %v, want nil and its own label", ops[0].Response, ops[0].Result())
		}
		if got := ops[1].Result(); got != ops[1].Response || !got.OK || got.Parent != "1" {
			t.Fatalf("append op: Result %+v, want its response", got)
		}
		if ops[2].Result() != nil {
			t.Fatalf("pending op: Result %+v, want nil", ops[2].Result())
		}
	}
}

// recordMixed records a sequence of n operations of every shape (reads
// and appends through Invoke/Respond, a pending invocation, and
// instantaneous Record ops) whose labels depend on tag, so two calls with
// different tags record different histories.
func recordMixed(r *Recorder, n int, tag string) {
	for i := 0; i < n; i++ {
		p := ProcID(i % 3)
		switch i % 4 {
		case 0:
			id := r.Invoke(p, Label{Kind: KindRead})
			r.Respond(id, Label{Kind: KindRead, Chain: chainOf("b0", fmt.Sprint(tag, i))})
		case 1:
			id := r.Invoke(p, Label{Kind: KindAppend, Block: BlockRef(fmt.Sprint(tag, i))})
			r.Respond(id, Label{Kind: KindAppend, Block: BlockRef(fmt.Sprint(tag, i)), Parent: "b0", OK: i%3 == 0})
		case 2:
			r.Record(p, Label{Kind: KindUpdate, Block: BlockRef(fmt.Sprint(tag, i)), Parent: "b0", Origin: p})
		default:
			if i == n-1 {
				r.Invoke(p, Label{Kind: KindRead})
			} else {
				r.Record(p, Label{Kind: KindSend, Block: BlockRef(fmt.Sprint(tag, i)), Parent: "b0", Origin: p})
			}
		}
	}
}

// TestReleasedBufferReuseIsInvisible: a recorder that records into a
// released history's buffers yields exactly the ops and events a fresh
// recorder yields for the same sequence, although the recycled buffers
// still hold a longer, different history's ops past the new length; and
// the released history reads as empty. sync.Pool may drop a buffer (the
// race detector makes it do so at random), so the reuse is retried until
// it is observed.
func TestReleasedBufferReuseIsInvisible(t *testing.T) {
	const reserve = 128
	fresh := NewRecorder()
	recordMixed(fresh, 41, "new")
	want := fresh.Finalize()
	for attempt := 0; attempt < 64; attempt++ {
		old := NewRecorder()
		old.Reserve(reserve)
		recordMixed(old, 97, "old")
		released := old.Finalize()
		if len(released.Reads()) == 0 || len(released.Appends()) == 0 || len(released.OpsOfKind(KindUpdate)) == 0 {
			t.Fatal("the released history should have built non-empty views")
		}
		first := &released.Ops()[0]
		released.Release()
		if released.Len() != 0 || released.Ops() != nil || len(released.Reads()) != 0 ||
			len(released.Appends()) != 0 || len(released.SuccessfulAppends()) != 0 ||
			len(released.OpsOfKind(KindUpdate)) != 0 || len(released.Events()) != 0 {
			t.Fatalf("released history is not empty: Len %d, %d reads", released.Len(), len(released.Reads()))
		}
		released.Release() // a second release is a no-op

		r := NewRecorder()
		r.Reserve(reserve)
		recordMixed(r, 41, "new")
		got := r.Finalize()
		if !reflect.DeepEqual(got.Ops(), want.Ops()) || !reflect.DeepEqual(got.Events(), want.Events()) {
			t.Fatalf("attempt %d: a recorder on recycled buffers recorded\n%+v\nwant\n%+v", attempt, got.Ops(), want.Ops())
		}
		if &got.Ops()[0] == first {
			return
		}
	}
	t.Fatal("Reserve never reused a released op buffer")
}
