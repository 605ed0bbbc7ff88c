// Package history implements the concurrent-history formalism of
// Definition 2.4 of "Blockchain Abstract Data Type" (Anceaume et al.).
//
// A concurrent history H = ⟨Σ, E, Λ, ↦→, ≺, ր⟩ consists of a set of events
// E (invocations and responses of ADT operations, plus the message-passing
// events of Definition 4.2: send, receive and update), the labelling Λ, the
// process order ↦→ (events of the same process), the operation order ≺
// (invocation precedes its response; a response at real time t precedes any
// invocation at t' > t), and the program order ր, the union of the two.
//
// Histories are produced by a Recorder, which concurrent objects call around
// each operation, and consumed immutably by the consistency checkers in
// internal/consistency. An operation's invocation and response events are
// fully described by its Op record (both sequence numbers, both times and
// both labels), so a history stores one record per operation and derives
// the events from them on demand.
package history

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// ProcID identifies a sequential process.
type ProcID int

// BlockRef names a block; the empty string is reserved for "no block".
type BlockRef string

// Chain is a blockchain value as returned by read(): the genesis-rooted
// sequence of block references {b0}⌢…
//
// Chains are values that are shared, never written. The sequential
// BT-ADT's ReadIDs hands out capped views (cap == len) of an id buffer it
// owns and keeps appending to, so chains recorded by consecutive reads of
// one process share their common prefix in memory. No code may write an
// element of a Chain it did not allocate; appending is safe, since a
// capped view always reallocates.
type Chain []BlockRef

// Clone returns an independent copy of the chain.
func (c Chain) Clone() Chain {
	out := make(Chain, len(c))
	copy(out, c)
	return out
}

// HasPrefix reports whether p is a prefix of c (p ⊑ c). Chains that start
// at the same element in memory (views of one read buffer) are decided by
// their lengths alone.
func (c Chain) HasPrefix(p Chain) bool {
	if len(p) > len(c) {
		return false
	}
	if len(p) == 0 || &c[0] == &p[0] {
		return true
	}
	for i := range p {
		if c[i] != p[i] {
			return false
		}
	}
	return true
}

// CommonPrefix returns the maximal common prefix of c and other. Chains
// that start at the same element in memory share their first min(len)
// elements, so that case costs O(1).
func (c Chain) CommonPrefix(other Chain) Chain {
	n := min(len(c), len(other))
	if n == 0 || &c[0] == &other[0] {
		return c[:n]
	}
	i := 0
	for i < n && c[i] == other[i] {
		i++
	}
	return c[:i]
}

// String renders the chain with the paper's b0⌢b1⌢… concatenation syntax.
func (c Chain) String() string {
	var sb strings.Builder
	for i, b := range c {
		if i > 0 {
			sb.WriteString("⌢")
		}
		sb.WriteString(string(b))
	}
	return sb.String()
}

// Kind enumerates the operation kinds that appear in the histories of this
// reproduction.
type Kind int

// Operation kinds. Read and Append are the BT-ADT operations
// (Definition 3.1); GetToken and ConsumeToken are the oracle operations
// (Definition 3.5); Send, Receive and Update are the replicated-object
// events of Definitions 4.2 and 4.3.
const (
	KindRead Kind = iota
	KindAppend
	KindGetToken
	KindConsumeToken
	KindSend
	KindReceive
	KindUpdate
	KindPropose
	KindDecide
)

var kindNames = map[Kind]string{
	KindRead:         "read",
	KindAppend:       "append",
	KindGetToken:     "getToken",
	KindConsumeToken: "consumeToken",
	KindSend:         "send",
	KindReceive:      "receive",
	KindUpdate:       "update",
	KindPropose:      "propose",
	KindDecide:       "decide",
}

// String returns the paper's name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Label is Λ(e): the operation an event belongs to, with its arguments and —
// on responses — its result.
type Label struct {
	Kind Kind
	// Block is the block argument of append/send/receive/update/propose,
	// or the proposed block of getToken.
	Block BlockRef
	// Parent is the predecessor argument bg of send/receive/update and of
	// getToken (the block the token is requested for).
	Parent BlockRef
	// Chain is the blockchain returned by a read response (or decided by
	// a decide event).
	Chain Chain
	// OK is the boolean result of an append response.
	OK bool
	// Token identifies the oracle token involved in
	// getToken/consumeToken responses.
	Token uint64
	// Origin is the process that generated the block carried by a
	// send/receive/update event (the i of b_i in Definition 4.3); it is
	// meaningful only for those kinds.
	Origin ProcID
}

// EventType distinguishes invocation and response events.
type EventType int

// Event types.
const (
	Invocation EventType = iota
	Response
)

// String returns "inv" or "rsp".
func (t EventType) String() string {
	if t == Invocation {
		return "inv"
	}
	return "rsp"
}

// OpID pairs an invocation event with its response event.
type OpID int

// Event is an element of E. Histories do not store events;
// History.Events derives them from the ops.
type Event struct {
	// Seq is the event's position in the global record; it is consistent
	// with real time (Time) and with per-process order.
	Seq int
	// Type says whether this is the invocation or the response event.
	Type EventType
	// Proc is the process that produced the event.
	Proc ProcID
	// Op identifies the operation this event belongs to.
	Op OpID
	// Label is Λ(e).
	Label Label
	// Time is the real (or virtual) timestamp used by the operation
	// order ≺.
	Time int64
}

// String renders the event compactly for diagnostics.
func (e Event) String() string {
	return fmt.Sprintf("e%d[p%d %s %s(%s) t=%d]", e.Seq, e.Proc, e.Type, e.Label.Kind, string(e.Label.Block), e.Time)
}

// Op is a completed (or pending) operation: the one record a history
// keeps for its invocation event and, when present, its response event.
type Op struct {
	ID    OpID
	Proc  ProcID
	Label Label // invocation label
	// Response is the response label of an op recorded by Invoke and
	// Respond. It is nil for a pending op and for an instantaneous op
	// (Recorder.Record), whose response repeats its invocation label; read
	// it through Result.
	Response *Label
	InvTime  int64
	RspTime  int64
	InvSeq   int
	RspSeq   int
	// Complete reports whether a response was recorded.
	Complete bool
}

// Result returns the op's response label: Response, or for a complete
// instantaneous op the op's own Label, which its response repeats. It is
// nil for a pending op.
func (op *Op) Result() *Label {
	if op.Response == nil && op.Complete {
		return &op.Label
	}
	return op.Response
}

// History is an immutable concurrent history H.
//
// It keeps one Op per operation and no events: the event set E is
// derived from the ops (Events), since each op carries its invocation's
// and response's sequence numbers, times and labels.
//
// Because the history never changes after Snapshot, everything the
// consistency checkers and metric collectors derive from the ops is
// computed once and cached. The analysis index comes from one pass over
// the ops, built by the first caller of any of its accessors:
//   - the views Reads, Appends and SuccessfulAppends, sized exactly
//     (len == cap), whose records hold *Op pointers into the history's own
//     ops;
//   - a dense block id for every block an append, an update or a read
//     chain names (ReadOp.IDs, AppendOp.ID), with each id's earliest
//     insertion time (Earliest);
//   - the sorted growth times (GrowthTimes), the parent agreement of the
//     reads (ReadsAgreeOnParents) and the deepest rollback any process saw
//     (MaxReorg).
//
// OpsOfKind is cached per kind beside it. The cached slices and the ops
// they point at are shared — callers must not mutate or reorder them, nor
// write through the pointers (order a permutation instead, as
// readsByProcessOrder in internal/consistency does).
//
// A history's ops live in buffers that Release may hand back to the
// recorders for reuse; see Release for who may call it.
type History struct {
	ops []Op
	// resp is the response-label chunk the recorder was filling when the
	// history was taken; Release recycles it with ops.
	resp []Label

	mu        sync.Mutex
	ix        *index
	kindCache map[Kind][]Op
}

// index is the analysis index of a history (see History): built by
// buildIndex, dropped by Release.
type index struct {
	reads     []ReadOp
	appends   []AppendOp
	okAppends []AppendOp
	// growth holds the invocation times of the growth events (successful
	// appends and updates), sorted.
	growth []int64
	// earliest[id] is the earliest invocation time of an append or update
	// of block id, or NotInserted.
	earliest []int64
	agree    bool
	maxReorg int
}

// NotInserted is Earliest's entry for a block id that no append or update
// inserted: a block only reads name.
const NotInserted int64 = math.MaxInt64

// Events returns the event set E in global (Seq) order, derived from the
// ops on each call: every op contributes its invocation event and, when
// complete, its response event. Sequence numbers are dense, so each event
// is placed at its Seq without sorting.
func (h *History) Events() []Event {
	out := make([]Event, h.Len())
	for i := range h.ops {
		op := &h.ops[i]
		out[op.InvSeq] = Event{Seq: op.InvSeq, Type: Invocation, Proc: op.Proc, Op: op.ID, Label: op.Label, Time: op.InvTime}
		if op.Complete {
			out[op.RspSeq] = Event{Seq: op.RspSeq, Type: Response, Proc: op.Proc, Op: op.ID, Label: *op.Result(), Time: op.RspTime}
		}
	}
	return out
}

// Ops returns all operations in invocation order.
func (h *History) Ops() []Op { return h.ops }

// Len returns the number of events: one invocation per op plus one
// response per complete op.
func (h *History) Len() int {
	n := len(h.ops)
	for i := range h.ops {
		if h.ops[i].Complete {
			n++
		}
	}
	return n
}

// ReadOp is a completed read() operation together with its returned chain.
// Op points into the history's ops. IDs[k] is the block id of Chain[k];
// like Chain, it is a capped view that may share memory with the IDs of
// the same process's earlier reads.
type ReadOp struct {
	Op    *Op
	Chain Chain
	IDs   []int32
}

// Reads returns the completed read() operations in response order (the
// order their responses occurred), which is the order the consistency
// criteria quantify over. The slice is computed once and shared across
// calls; callers must not mutate or reorder it.
func (h *History) Reads() []ReadOp { return h.index().reads }

// ReadsAgreeOnParents reports whether the completed reads agree on one
// predecessor per block id: an id found past position 0 of any returned
// chain has the same id just before it in every chain that holds it past
// position 0. Then two chains holding the same id at one position agree on
// every position before it (walk both back through the shared
// predecessors). So p ⊑ c exactly when p is empty or c holds p's last id
// at p's last position, and the positions where two chains agree form a
// prefix, which a binary search finds. The answer is computed with the
// index.
func (h *History) ReadsAgreeOnParents() bool { return h.index().agree }

// MaxReorg returns the deepest observed rollback: the largest number of
// blocks a process saw leave its chain between two of its consecutive
// reads. It is computed with the index.
func (h *History) MaxReorg() int { return h.index().maxReorg }

// GrowthTimes returns the invocation times of the growth events — the
// successful appends and the updates — sorted. The slice is computed with
// the index and shared; callers must not mutate it.
func (h *History) GrowthTimes() []int64 { return h.index().growth }

// Earliest returns, per block id, the earliest invocation time of an
// append or update of the block, or NotInserted. It has one entry per id,
// so the ids of a history are [0, len(Earliest())). The slice is computed
// with the index and shared; callers must not mutate it.
func (h *History) Earliest() []int64 { return h.index().earliest }

// AppendOp is a completed append() operation. Op points into the
// history's ops; ID is Block's block id.
type AppendOp struct {
	Op    *Op
	Block BlockRef
	OK    bool
	ID    int32
}

// Appends returns the completed append() operations in invocation order.
// The slice is computed once and shared; callers must not mutate it.
func (h *History) Appends() []AppendOp { return h.index().appends }

// SuccessfulAppends returns the appends whose response is true. The
// hierarchy results (Section 3.4) consider histories purged of unsuccessful
// append responses; this accessor implements that purge. The slice is
// computed once and shared; callers must not mutate it.
func (h *History) SuccessfulAppends() []AppendOp { return h.index().okAppends }

// index returns the history's analysis index, building it on first use.
func (h *History) index() *index {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ix == nil {
		h.ix = buildIndex(h.ops)
	}
	return h.ix
}

// buildIndex builds the analysis index of ops: one pass counts the views'
// sizes, one fills the views and interns the blocks appends and updates
// name, and the reads, once in response order, intern their chains.
func buildIndex(ops []Op) *index {
	var reads, appends, ok, updates int
	for i := range ops {
		switch op := &ops[i]; op.Label.Kind {
		case KindRead:
			if op.Complete {
				reads++
			}
		case KindAppend:
			if op.Complete {
				appends++
				if op.Result().OK {
					ok++
				}
			}
		case KindUpdate:
			updates++
		}
	}
	ix := &index{
		reads:     make([]ReadOp, 0, reads),
		appends:   make([]AppendOp, 0, appends),
		okAppends: make([]AppendOp, 0, ok),
		growth:    make([]int64, 0, ok+updates),
	}
	in := interner{ids: make(map[BlockRef]int32, appends)}
	sorted := true // the reads are already in response order
	for i := range ops {
		switch op := &ops[i]; op.Label.Kind {
		case KindRead:
			if op.Complete {
				sorted = sorted && (len(ix.reads) == 0 || ix.reads[len(ix.reads)-1].Op.RspSeq < op.RspSeq)
				ix.reads = append(ix.reads, ReadOp{Op: op, Chain: op.Result().Chain})
			}
		case KindAppend:
			id := in.insert(op.Label.Block, op.InvTime)
			if op.Complete {
				a := AppendOp{Op: op, Block: op.Label.Block, OK: op.Result().OK, ID: id}
				ix.appends = append(ix.appends, a)
				if a.OK {
					ix.okAppends = append(ix.okAppends, a)
					ix.growth = append(ix.growth, op.InvTime)
				}
			}
		case KindUpdate:
			in.insert(op.Label.Block, op.InvTime)
			ix.growth = append(ix.growth, op.InvTime)
		}
	}
	slices.Sort(ix.growth)
	if !sorted {
		slices.SortFunc(ix.reads, func(a, b ReadOp) int { return cmp.Compare(a.Op.RspSeq, b.Op.RspSeq) })
	}
	ix.internReads(&in)
	ix.earliest = in.earliest
	return ix
}

// interner hands out dense block ids in first-seen order and keeps each
// id's earliest insertion time. The name map lives only while the index
// is built.
type interner struct {
	ids      map[BlockRef]int32
	earliest []int64
}

// id returns b's id, assigning the next one to a block not seen before.
func (in *interner) id(b BlockRef) int32 {
	id, ok := in.ids[b]
	if !ok {
		id = int32(len(in.earliest))
		in.ids[b] = id
		in.earliest = append(in.earliest, NotInserted)
	}
	return id
}

// insert returns b's id and records an insertion of b at time t. The
// empty name is "no block": it gets an id but is never inserted.
func (in *interner) insert(b BlockRef, t int64) int32 {
	id := in.id(b)
	if b != "" && t < in.earliest[id] {
		in.earliest[id] = t
	}
	return id
}

// internReads fills the IDs of the reads, which are in response order,
// and computes the parent agreement and the deepest rollback from them.
//
// Each process keeps the previous read's chain and an id buffer whose
// prefix holds that chain's ids. A read keeps the ids of its common
// prefix with the previous one and interns only the blocks past it,
// appended to the buffer; its IDs is a capped view of the buffer, so
// views of one process share memory as ReadIDs's chains do. For chains
// that share memory the common prefix costs O(1). A read that rolls back
// caps the buffer at the common prefix first, so its new ids go to a
// fresh buffer and never overwrite an earlier view. The rollback depth is
// the previous length past the common prefix, and parent agreement is
// checked on the positions past it: the earlier ones were checked with
// the previous read.
func (ix *index) internReads(in *interner) {
	type procIDs struct {
		chain Chain
		ids   []int32
	}
	procs := map[ProcID]*procIDs{}
	var pred []int32 // pred[id]: the id before id in the reads, or -1
	ix.agree = true
	for k := range ix.reads {
		r := &ix.reads[k]
		last := procs[r.Op.Proc]
		if last == nil {
			last = &procIDs{}
			procs[r.Op.Proc] = last
		}
		c, ids := r.Chain, last.ids
		cp := len(last.chain.CommonPrefix(c))
		ix.maxReorg = max(ix.maxReorg, len(last.chain)-cp)
		if cp < len(ids) {
			ids = ids[:cp:cp]
		}
		for _, b := range c[cp:] {
			ids = append(ids, in.id(b))
		}
		r.IDs = ids[:len(c):len(c)]
		last.chain, last.ids = c, ids
		if !ix.agree {
			continue
		}
		for len(pred) < len(in.earliest) {
			pred = append(pred, -1)
		}
		for i := max(1, cp); i < len(ids); i++ {
			if p := pred[ids[i]]; p < 0 {
				pred[ids[i]] = ids[i-1]
			} else if p != ids[i-1] {
				ix.agree = false
				break
			}
		}
	}
}

// OpsOfKind returns completed operations with the given kind, in invocation
// order. The slice is computed once per kind and shared; callers must not
// mutate it.
func (h *History) OpsOfKind(k Kind) []Op {
	h.mu.Lock()
	defer h.mu.Unlock()
	out, ok := h.kindCache[k]
	if !ok {
		out = make([]Op, 0, h.countOps(k))
		for i := range h.ops {
			if op := &h.ops[i]; op.Label.Kind == k && op.Complete {
				out = append(out, *op)
			}
		}
		if h.kindCache == nil {
			h.kindCache = map[Kind][]Op{}
		}
		h.kindCache[k] = out
	}
	return out
}

// Release hands the history's buffers back for reuse by the next
// Recorder.Reserve they fit, and empties the history: afterwards Ops is
// nil, Len is 0 and every view is empty, so a stray reference to the
// History sees an empty history, never another run's ops. An *Op,
// ReadOp or AppendOp taken before Release points into the recycled
// buffer and must not be used after it.
//
// Only the history's last consumer may call it, once nothing reads the
// history any more: the sweep engine's scenario runner, after
// classification and every collector have run. A history handed to a
// caller is never released. Releasing twice is a no-op.
func (h *History) Release() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ops == nil {
		return
	}
	if old := spare.Swap(&buffers{ops: h.ops[:0], resp: h.resp[:0]}); old != nil {
		bufPool.Put(old)
	}
	h.ops, h.resp = nil, nil
	h.ix, h.kindCache = nil, nil
}

// countOps returns the number of completed operations of kind k, so
// OpsOfKind allocates its exact size once.
func (h *History) countOps(k Kind) int {
	n := 0
	for i := range h.ops {
		if h.ops[i].Label.Kind == k && h.ops[i].Complete {
			n++
		}
	}
	return n
}

// ProcessOrdered reports a ↦→ b: both events belong to the same process and
// a precedes b in that process's sequence.
func ProcessOrdered(a, b Event) bool {
	return a.Proc == b.Proc && a.Seq < b.Seq
}

// OperationOrdered reports a ≺ b per Definition 2.4: either a is the
// invocation and b the response of the same operation, or a is a response
// occurring strictly before the invocation b in real time.
func OperationOrdered(a, b Event) bool {
	if a.Op == b.Op && a.Type == Invocation && b.Type == Response {
		return true
	}
	return a.Type == Response && b.Type == Invocation && a.Time < b.Time
}

// ProgramOrdered reports a ր b: the union of process order and operation
// order (Definition 2.4). It is the order the consistency criteria use to
// relate a read response to later read invocations.
func ProgramOrdered(a, b Event) bool {
	if a.Seq == b.Seq {
		return false
	}
	return ProcessOrdered(a, b) || OperationOrdered(a, b)
}

// RespondedBefore reports whether op a's response program-order-precedes op
// b's invocation: ersp(a) ր einv(b). Both operations must be complete.
func RespondedBefore(a, b Op) bool {
	if !a.Complete {
		return false
	}
	// Same process: compare per-process sequence.
	if a.Proc == b.Proc {
		return a.RspSeq < b.InvSeq
	}
	return a.RspTime < b.InvTime
}

// Recorder accumulates operations concurrently. It stores one Op per
// operation and numbers events with a counter; the events themselves are
// derived by History.Events. The zero value is not usable; create one
// with NewRecorder.
type Recorder struct {
	mu sync.Mutex
	// seq is the number of events recorded so far: the Seq of the next.
	seq   int
	ops   []Op
	clock Clock
	// respSlab is the current response-label chunk. Respond hands out
	// pointers into it; append never reallocates within a chunk (a fresh
	// chunk of the same capacity is started when the current one fills),
	// so the pointers stay valid and one allocation serves many
	// responses. Record takes no entry: an instantaneous op's response is
	// its own label (Op.Result).
	respSlab []Label
}

// buffers is the storage of one history: its op buffer and the
// response-label chunk it was filling. History.Release puts it in spare,
// and the next Reserve it fits reuses it instead of faulting in fresh
// memory. The recycled entries are not cleared: every op and label
// appended later overwrites its slot whole.
type buffers struct {
	ops  []Op
	resp []Label
}

// spare holds the most recently released buffers, and bufPool those it
// displaced (parallel runners release several). A pool alone loses a
// buffer whenever two collections pass before the next Reserve or that
// Reserve runs on another processor than the Release (a pool's
// per-processor private entry cannot be taken elsewhere), and each loss
// faults in a fresh op buffer, megabytes for a long run.
var (
	spare   atomic.Pointer[buffers]
	bufPool sync.Pool // of *buffers
)

// Clock supplies timestamps for the operation order ≺. Virtual-time
// simulators supply their own clock; real concurrent runs use a monotonic
// counter.
type Clock interface {
	// Now returns the current time; values must be non-decreasing.
	Now() int64
}

// counterClock is a monotonic logical clock: each call returns a strictly
// larger value, which linearizes real concurrent runs by recording order.
type counterClock struct {
	mu sync.Mutex
	t  int64
}

func (c *counterClock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t++
	return c.t
}

// NewRecorder returns a recorder using a monotonic logical clock.
func NewRecorder() *Recorder {
	return &Recorder{clock: &counterClock{}}
}

// NewRecorderWithClock returns a recorder stamped by the given clock (used
// by the virtual-time netsim).
func NewRecorderWithClock(c Clock) *Recorder {
	return &Recorder{clock: c}
}

// Reserve grows the recorder's operation buffer to room for at least ops
// operations, and its response-label slab to room for ops/2 responses:
// only ops recorded by Invoke and Respond take a slab entry, and in the
// simulators' histories those (reads, appends) are at most about a third
// of the ops, the send/receive/update fan-out being recorded by Record.
// There is no event buffer to size: events are derived from the ops.
// Simulators that can bound the history size from their parameters
// (TargetBlocks × replicas × ops-per-block) call this once so the append
// path never reallocates mid-run. An empty recorder takes the buffers of
// a released history (History.Release) when they are large enough.
func (r *Recorder) Reserve(ops int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ops) == 0 && cap(r.ops) < ops {
		// An empty recorder holds no response pointers either, so both
		// buffers can be swapped for recycled ones.
		b := spare.Swap(nil)
		if b == nil {
			b, _ = bufPool.Get().(*buffers)
		}
		if b != nil && cap(b.ops) >= ops {
			r.ops, r.respSlab = b.ops, b.resp
		}
	}
	if cap(r.ops) < ops {
		grown := make([]Op, len(r.ops), ops)
		copy(grown, r.ops)
		r.ops = grown
	}
	if resp := ops / 2; cap(r.respSlab)-len(r.respSlab) < resp {
		r.respSlab = make([]Label, 0, resp)
	}
}

// Invoke records the invocation event of a new operation and returns its
// OpID, to be passed to Respond.
func (r *Recorder) Invoke(p ProcID, l Label) OpID {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := OpID(len(r.ops))
	seq := r.seq
	r.seq++
	now := r.clock.Now()
	r.ops = append(r.ops, Op{ID: id, Proc: p, Label: l, InvTime: now, InvSeq: seq})
	return id
}

// Respond records the response event of operation id with the given result
// label.
func (r *Recorder) Respond(id OpID, result Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	seq := r.seq
	r.seq++
	now := r.clock.Now()
	op := &r.ops[id]
	if len(r.respSlab) == cap(r.respSlab) {
		r.respSlab = make([]Label, 0, max(256, cap(r.respSlab)))
	}
	r.respSlab = append(r.respSlab, result)
	op.Response = &r.respSlab[len(r.respSlab)-1]
	op.RspTime = now
	op.RspSeq = seq
	op.Complete = true
}

// Record records an instantaneous (invocation+response collapsed) event,
// used for send/receive/update events which have no call/return structure.
// It records a complete op under one lock acquisition — equivalent to
// Invoke+Respond with l as the result (including drawing two sequence
// numbers and two clock values) but cheaper on the simulator's
// per-delivery path, where Record is the dominant call. The op stores no
// response label: Op.Result answers with its own Label.
func (r *Recorder) Record(p ProcID, l Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := OpID(len(r.ops))
	seq := r.seq
	r.seq += 2
	tInv := r.clock.Now()
	tRsp := r.clock.Now()
	r.ops = append(r.ops, Op{
		ID: id, Proc: p, Label: l,
		InvTime: tInv, RspTime: tRsp,
		InvSeq: seq, RspSeq: seq + 1,
		Complete: true,
	})
}

// Snapshot returns an immutable copy of the history recorded so far.
func (r *Recorder) Snapshot() *History {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := &History{ops: make([]Op, len(r.ops))}
	copy(h.ops, r.ops)
	// One response slab for the whole snapshot instead of one heap object
	// per completed operation: the copies stay independent of the recorder
	// (the slab is owned by the snapshot) without per-op allocations.
	// Instantaneous ops have no Response to copy; their copied Label is
	// their result.
	n := 0
	for i := range r.ops {
		if r.ops[i].Response != nil {
			n++
		}
	}
	slab := make([]Label, 0, n)
	for i := range h.ops {
		if r.ops[i].Response != nil {
			slab = append(slab, *r.ops[i].Response)
			h.ops[i].Response = &slab[len(slab)-1]
		}
	}
	return h
}

// Finalize returns the recorded history by transferring ownership of the
// recorder's op buffer and current response chunk — no copy. The
// recorder is reset to empty:
// recording after Finalize starts a new history at Seq 0 and OpID 0, in
// fresh buffers the returned history does not see. Single-use harnesses
// (one recorder per simulation run) call this instead of Snapshot to avoid
// duplicating every op at the end of every run.
func (r *Recorder) Finalize() *History {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := &History{ops: r.ops, resp: r.respSlab}
	r.seq = 0
	r.ops = nil
	r.respSlab = nil
	return h
}
