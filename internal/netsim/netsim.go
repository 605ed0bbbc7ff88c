// Package netsim is the deterministic message-passing substrate of
// Section 4.2 of "Blockchain Abstract Data Type" (Anceaume et al.): an
// arbitrary large but finite set of n processes exchanging messages over
// channels that are synchronous (delivery within δ), weakly synchronous
// (unbounded before a global stabilization time GST, with every message —
// including ones sent before GST — delivered by max(send+δ, GST+δ), the
// Dwork–Lynch–Stockmeyer partial-synchrony contract), or asynchronous (no
// delivery bound), with optional message dropping, partitions, heavy-tail
// jitter, and crash/Byzantine fault injection.
//
// The simulator runs in virtual time, dispatching events in (time, push
// order) from a calendar ring of per-tick FIFOs backed by a heap for the
// rare far-future event, so every execution is a deterministic function of
// (topology, link model, seed).
// The fictional global clock the paper postulates is the simulator's `now`;
// processes never read it except through message delivery order, matching
// the paper's "processes do not have access to the fictional global time".
//
// The package also provides the two broadcast primitives the paper's
// necessity results revolve around: a Light Reliable Communication (LRC)
// broadcast satisfying Definition 4.4 (Validity + Agreement among correct
// processes), and a lossy broadcast whose per-destination drops construct
// the counterexample histories of Lemmas 4.4–4.5 and Theorem 4.7.
package netsim

import (
	"fmt"

	"blockadt/internal/history"
	"blockadt/internal/prng"
)

// Message is a network message. The blockchain protocols of this
// repository propagate block updates, so messages carry the (predecessor,
// block, origin) triple of Definition 4.3 plus a protocol-defined kind and
// optional payload.
type Message struct {
	From history.ProcID
	To   history.ProcID
	// Kind is a protocol-defined discriminator ("update", "vote", …).
	Kind string
	// Parent and Block are the (bg, b) of block-update messages.
	Parent history.BlockRef
	Block  history.BlockRef
	// Origin is the process that generated Block.
	Origin history.ProcID
	// Round tags protocol rounds (votes, proposals).
	Round int
	// Payload carries protocol-specific extra data.
	Payload any
}

// Sized lets protocol payloads report their approximate wire size, so
// the simulator's byte accounting reflects protocol data without netsim
// depending on the payload types. Payloads that do not implement it
// count as header-only messages.
type Sized interface {
	// WireSize returns the payload's approximate serialized size in
	// bytes.
	WireSize() int
}

// wireSize estimates the message's serialized size: the fixed header
// (from, to, origin, round), the kind and block references, and the
// payload's own estimate when it provides one. The estimate feeds the
// Bytes counter the metrics subsystem reads; it only needs to be
// deterministic and proportional, not exact.
func (m Message) wireSize() int64 {
	n := 16 + len(m.Kind) + len(m.Parent) + len(m.Block)
	if s, ok := m.Payload.(Sized); ok {
		n += s.WireSize()
	}
	return int64(n)
}

// Handler reacts to deliveries and scheduled timers at one process.
type Handler interface {
	// OnMessage is called when a message is delivered to the process.
	OnMessage(s *Sim, m Message)
	// OnTimer is called when a timer scheduled via Sim.TimerAt fires.
	OnTimer(s *Sim, tag string)
}

// HandlerFuncs adapts plain functions to Handler.
type HandlerFuncs struct {
	Message func(s *Sim, m Message)
	Timer   func(s *Sim, tag string)
}

// OnMessage implements Handler.
func (h HandlerFuncs) OnMessage(s *Sim, m Message) {
	if h.Message != nil {
		h.Message(s, m)
	}
}

// OnTimer implements Handler.
func (h HandlerFuncs) OnTimer(s *Sim, tag string) {
	if h.Timer != nil {
		h.Timer(s, tag)
	}
}

// LinkModel decides delivery delay and loss per message.
type LinkModel interface {
	// Plan returns the delivery delay for the message sent at time now
	// and whether the message is dropped instead. Implementations must
	// be deterministic given the rng stream.
	Plan(rng *prng.Source, m Message, now int64) (delay int64, drop bool)
	// Name identifies the model in reports.
	Name() string
}

// Synchronous delivers every message within [Min, Delta] (Section 4.2's
// synchronous channels: sent at t ⇒ delivered by t+δ).
type Synchronous struct {
	// Delta is the inclusive delivery bound δ (≥ 1).
	Delta int64
	// Min is the minimum delay (≥ 1; 0 defaults to 1).
	Min int64
}

// Name implements LinkModel.
func (l Synchronous) Name() string { return fmt.Sprintf("synchronous(δ=%d)", l.Delta) }

// Plan implements LinkModel.
func (l Synchronous) Plan(rng *prng.Source, _ Message, _ int64) (int64, bool) {
	lo := l.Min
	if lo < 1 {
		lo = 1
	}
	hi := l.Delta
	if hi < lo {
		hi = lo
	}
	return lo + rng.Int63n(hi-lo+1), false
}

// PlanBatch implements BatchPlanner. The delays are drawn in slice order
// with one rng draw each, exactly as len(delays) consecutive Plan calls
// would, so batched and per-send planning produce identical executions.
func (l Synchronous) PlanBatch(rng *prng.Source, _ Message, _ int64, delays []int64) {
	lo := l.Min
	if lo < 1 {
		lo = 1
	}
	hi := l.Delta
	if hi < lo {
		hi = lo
	}
	span := hi - lo + 1
	for i := range delays {
		delays[i] = lo + rng.Int63n(span)
	}
}

// Asynchronous delivers every message eventually but with no bound: delays
// are drawn from [1, MaxDelay] with occasional long-tail stragglers, which
// is the executable stand-in for unbounded delay on finite runs.
type Asynchronous struct {
	// MaxDelay bounds common-case delays (default 64).
	MaxDelay int64
	// TailProb is the probability of a straggler delayed 10×MaxDelay.
	TailProb float64
}

// Name implements LinkModel.
func (l Asynchronous) Name() string { return "asynchronous" }

// Plan implements LinkModel.
func (l Asynchronous) Plan(rng *prng.Source, _ Message, _ int64) (int64, bool) {
	maxd := l.MaxDelay
	if maxd <= 0 {
		maxd = 64
	}
	if l.TailProb > 0 && rng.Bool(l.TailProb) {
		return 1 + rng.Int63n(10*maxd), false
	}
	return 1 + rng.Int63n(maxd), false
}

// WeaklySynchronous behaves asynchronously before the global stabilization
// time GST and synchronously (bound Delta) after it — the paper's weakly
// synchronous channels. It honors the standard partial-synchrony delivery
// contract (Dwork–Lynch–Stockmeyer): every message sent at time t is
// delivered by max(t, GST) + Delta, so pre-GST sends whose asynchronous
// draw overshoots are clamped to land by GST+Delta.
type WeaklySynchronous struct {
	GST    int64
	Delta  int64
	PreMax int64
}

// Name implements LinkModel.
func (l WeaklySynchronous) Name() string {
	return fmt.Sprintf("weakly-synchronous(GST=%d,δ=%d)", l.GST, l.Delta)
}

// Plan implements LinkModel.
func (l WeaklySynchronous) Plan(rng *prng.Source, m Message, now int64) (int64, bool) {
	if now >= l.GST {
		return Synchronous{Delta: l.Delta}.Plan(rng, m, now)
	}
	pre := l.PreMax
	if pre <= 0 {
		pre = 8 * l.Delta
	}
	d, _ := Asynchronous{MaxDelay: pre}.Plan(rng, m, now)
	// DLS bound: a message sent before GST must be delivered by GST+Delta.
	// now < GST here, so the clamp never drops the delay below Delta+1.
	if bound := l.GST + l.Delta - now; d > bound {
		d = bound
	}
	return d, false
}

// DropRule decides whether a particular message is lost.
type DropRule func(m Message, now int64) bool

// Lossy wraps a link model with a drop rule, producing the non-reliable
// channels used by the necessity counterexamples (Theorem 4.7: "it is
// impossible to implement Eventual Prefix if even only one message sent by
// a correct process is dropped").
type Lossy struct {
	Inner LinkModel
	Rule  DropRule
}

// Name implements LinkModel.
func (l Lossy) Name() string { return "lossy(" + l.Inner.Name() + ")" }

// Plan implements LinkModel.
func (l Lossy) Plan(rng *prng.Source, m Message, now int64) (int64, bool) {
	if l.Rule != nil && l.Rule(m, now) {
		return 0, true
	}
	return l.Inner.Plan(rng, m, now)
}

// LossyRate drops each message independently with probability P and
// otherwise defers to the inner model — the rate-based generalization of
// Lossy used by the "lossy" scenario link. Theorem 4.7 proves Eventual
// Prefix is unimplementable once even one message from a correct process
// is dropped; seeded per-message drops construct such runs reproducibly.
type LossyRate struct {
	Inner LinkModel
	// P is the per-message drop probability in [0, 1].
	P float64
}

// Name implements LinkModel.
func (l LossyRate) Name() string { return fmt.Sprintf("lossy(p=%.2f,%s)", l.P, l.Inner.Name()) }

// Plan implements LinkModel. The drop draw is taken for every message —
// kept or not — so the rng stream position, and with it every later
// delivery, is a deterministic function of the send sequence alone.
func (l LossyRate) Plan(rng *prng.Source, m Message, now int64) (int64, bool) {
	if rng.Bool(l.P) {
		return 0, true
	}
	return l.Inner.Plan(rng, m, now)
}

// PartitionModel bisects the process set for the interval [Start, Heal):
// processes with id < Split form one side, the rest the other. A message
// crossing the cut whose delivery would land inside [Start, Heal) —
// whether sent during the partition or already in flight when it starts —
// is dropped (Defer false) or deferred to arrive after healing (Defer
// true: delivery at Heal plus the inner model's draw, as if the network
// retransmitted once the cut closed). Same-side traffic is untouched, so
// no cross-cut message is ever delivered while the partition is up. This
// is the executable form of the partition-prone channels behind the
// paper's remark that nothing stronger than monotonic-prefix consistency
// survives partitions.
type PartitionModel struct {
	Inner LinkModel
	// Split is the cut: processes with id < Split are side A.
	Split history.ProcID
	// Start and Heal bound the partition interval [Start, Heal).
	Start, Heal int64
	// Defer delivers cross-cut messages after healing instead of
	// dropping them.
	Defer bool
}

// Name implements LinkModel.
func (l PartitionModel) Name() string {
	mode := "drop"
	if l.Defer {
		mode = "defer"
	}
	return fmt.Sprintf("partition(split=%d,[%d,%d),%s,%s)", l.Split, l.Start, l.Heal, mode, l.Inner.Name())
}

// crossesCut reports whether the message spans the bisection.
func (l PartitionModel) crossesCut(m Message) bool {
	return (m.From < l.Split) != (m.To < l.Split)
}

// Plan implements LinkModel. Like LossyRate, the inner draw happens for
// every message so the rng stream is independent of partition timing.
func (l PartitionModel) Plan(rng *prng.Source, m Message, now int64) (int64, bool) {
	delay, drop := l.Inner.Plan(rng, m, now)
	if drop {
		return delay, true
	}
	if at := now + delay; l.crossesCut(m) && at >= l.Start && at < l.Heal {
		if !l.Defer {
			return 0, true
		}
		// Deliver at Heal+delay: strictly after the cut closes, never
		// inside [Start, Heal).
		return l.Heal - now + delay, false
	}
	return delay, false
}

// Jitter wraps a link model with heavy-tail straggler delays: with
// probability TailProb the inner draw is multiplied by TailFactor. Unlike
// Asynchronous it preserves the inner model's common case exactly, so it
// isolates the effect of rare stragglers on convergence.
type Jitter struct {
	Inner LinkModel
	// TailProb is the per-message straggler probability.
	TailProb float64
	// TailFactor multiplies a straggler's delay (0 defaults to 10).
	TailFactor int64
}

// Name implements LinkModel.
func (l Jitter) Name() string {
	return fmt.Sprintf("jitter(tail=%.2f,×%d,%s)", l.TailProb, l.factor(), l.Inner.Name())
}

func (l Jitter) factor() int64 {
	if l.TailFactor <= 0 {
		return 10
	}
	return l.TailFactor
}

// Plan implements LinkModel. The tail draw is taken for every message so
// the rng stream position is independent of the inner model's outcome.
func (l Jitter) Plan(rng *prng.Source, m Message, now int64) (int64, bool) {
	delay, drop := l.Inner.Plan(rng, m, now)
	tail := rng.Bool(l.TailProb)
	if drop {
		return delay, true
	}
	if tail {
		delay *= l.factor()
	}
	return delay, false
}

// BatchPlanner is an optional LinkModel extension for models whose draws
// do not depend on the individual message: PlanBatch fills delays with one
// value per message, consuming the rng exactly as len(delays) consecutive
// Plan calls on the same stream would. Broadcast uses it to plan a whole
// fan-out with one call; the drop decision must be uniformly "keep" (models
// that can drop cannot implement BatchPlanner without changing semantics).
type BatchPlanner interface {
	PlanBatch(rng *prng.Source, m Message, now int64, delays []int64)
}

// ringWidth is the span W in ticks of the calendar ring (R. Brown,
// "Calendar queues", CACM 31(10), 1988), a power of two. It holds every
// timer and δ-bounded delivery of the simulators; the far heap takes the
// rare longer delays (partition-deferred traffic, asynchronous
// stragglers). 256 measured no faster.
const ringWidth = 128

// event is a queue entry's payload: either a delivery or a timer. Events
// live in a slab the simulator recycles through a free list — scheduling
// never heap-allocates once the slab has grown to the peak queue depth.
// The process an event is for is msg.To; a timer carries its tag in
// msg.Kind.
type event struct {
	msg   Message
	timer bool
	next  int32 // the next event in its ring bucket, as slab index+1; 0 ends it
}

// bucket is one tick's FIFO in the calendar ring, as slab index+1 (0: empty).
type bucket struct{ head, tail int32 }

// heapItem is what the far heap orders: the (at, seq) key plus the slab
// index of the payload.
type heapItem struct {
	at  int64
	seq int64 // FIFO tie-break for determinism
	idx int32
}

// itemLess orders the far min-heap by (at, seq).
func itemLess(a, b heapItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Sim is the discrete-event simulator. It is single-goroutine: handlers run
// sequentially in virtual-time order.
//
// Events run in (at, push order). An event due less than W ticks ahead
// joins the FIFO of ring bucket at mod W; every queued event is due at or
// after now and every push strictly after now, so a bucket holds one tick.
// An event due W or more ticks ahead goes to the far heap, ordered by
// (at, seq). At equal at, far events come first: a far event due at T was
// pushed at some now <= T-W, a ring event at some now > T-W, and now never
// decreases, so the far one was pushed earlier. Popping is thus a two-way
// merge that takes the heap's top on ties, and no event ever migrates.
type Sim struct {
	now int64
	seq int64
	// ring[at mod W] holds the ring events due at at; ringLen counts them.
	ring    [ringWidth]bucket
	ringLen int
	far     []heapItem
	// slab holds the queued events' payloads; free lists the vacated slots.
	// Together they pool event structs: a dispatch releases its slot for
	// the next push, so steady-state scheduling allocates nothing.
	slab []event
	free []int32
	// delays is Broadcast's scratch buffer for batched link planning; it is
	// reused across calls so batched fan-outs allocate nothing steady-state.
	delays []int64
	// handlers and crashed are indexed by process id; nil is unregistered.
	handlers []Handler
	crashed  []bool
	links    LinkModel
	rng      *prng.Source
	rec      *history.Recorder
	// Delivered counts delivered messages; Dropped counts planned drops.
	Delivered int
	Dropped   int
	// Bytes accumulates the estimated wire size of every message sent
	// through the link model, including ones the model then drops (the
	// sender paid for them); self-deliveries bypass the wire and are not
	// counted. This is the instrumentation behind the msg_bytes metric.
	Bytes int64
}

// New returns a simulator over the given link model, seeded for
// reproducibility. The recorder (for histories of Definition 4.2) is
// created with the simulator's virtual clock.
func New(links LinkModel, seed uint64) *Sim {
	s := &Sim{
		links: links,
		rng:   prng.New(seed),
	}
	s.rec = history.NewRecorderWithClock(simClock{s})
	return s
}

// simClock exposes virtual time to the history recorder.
type simClock struct{ s *Sim }

// Now implements history.Clock.
func (c simClock) Now() int64 { return c.s.now }

// Now returns the current virtual time.
func (s *Sim) Now() int64 { return s.now }

// Recorder returns the history recorder stamped by virtual time.
func (s *Sim) Recorder() *history.Recorder { return s.rec }

// Rng returns the simulator's deterministic random source.
func (s *Sim) Rng() *prng.Source { return s.rng }

// Register installs the handler for a process. Process ids index the
// handler table, so they must be non-negative.
func (s *Sim) Register(p history.ProcID, h Handler) {
	s.handlers = grow(s.handlers, p)
	s.handlers[p] = h
}

// grow extends a table indexed by process id to cover p.
func grow[T any](t []T, p history.ProcID) []T {
	return append(t, make([]T, max(int(p)+1-len(t), 0))...)
}

// Procs returns the registered process ids in ascending order.
func (s *Sim) Procs() []history.ProcID {
	procs := make([]history.ProcID, 0, len(s.handlers))
	for p, h := range s.handlers {
		if h != nil {
			procs = append(procs, history.ProcID(p))
		}
	}
	return procs
}

// Crash marks the process faulty from the current instant: pending and
// future deliveries and timers to it are discarded. A negative id names
// no process and is ignored.
func (s *Sim) Crash(p history.ProcID) {
	if p >= 0 {
		s.crashed = grow(s.crashed, p)
		s.crashed[p] = true
	}
}

// Crashed reports whether the process has crashed.
func (s *Sim) Crashed(p history.ProcID) bool { return uint(p) < uint(len(s.crashed)) && s.crashed[p] }

// push parks the event in a slab slot (recycled from the free list when
// one is available) and queues it: at the tail of its tick's ring bucket
// when it is due less than W ticks ahead, in the far heap otherwise. No
// per-event allocation.
func (s *Sim) push(at int64, ev event) {
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
		s.slab[idx] = ev
	} else {
		idx = int32(len(s.slab))
		s.slab = append(s.slab, ev)
	}
	if at-s.now < ringWidth {
		b := &s.ring[at&(ringWidth-1)]
		if b.head == 0 {
			b.head = idx + 1
		} else {
			s.slab[b.tail-1].next = idx + 1
		}
		b.tail = idx + 1
		s.ringLen++
		return
	}
	s.seq++
	s.far = append(s.far, heapItem{at: at, seq: s.seq, idx: idx})
	q := s.far
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !itemLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// next locates the earliest queued event: its time, and whether it is the
// far heap's top rather than the head of ring bucket at mod W. The queue must
// not be empty.
func (s *Sim) next() (at int64, far bool) {
	if s.ringLen == 0 {
		return s.far[0].at, true
	}
	at = s.now
	for s.ring[at&(ringWidth-1)].head == 0 {
		at++
	}
	if len(s.far) > 0 && s.far[0].at <= at {
		return s.far[0].at, true
	}
	return at, false
}

// popFar removes the far heap's top (sift-down) and returns its slab index.
func (s *Sim) popFar() int32 {
	q := s.far
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	s.far = q
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && itemLess(q[r], q[c]) {
			c = r
		}
		if !itemLess(q[c], q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	return top.idx
}

// step dequeues the event next located, advances now to its time and
// dispatches it from its slab slot, returning whether a handler ran. The
// slot is zeroed — so the pool does not retain message payloads — and
// released to the free list only after the handler returns, because a
// push from the handler may reuse a free slot.
func (s *Sim) step(at int64, far bool) bool {
	var idx int32
	if far {
		idx = s.popFar()
	} else {
		b := &s.ring[at&(ringWidth-1)]
		idx = b.head - 1
		b.head = s.slab[idx].next
		s.ringLen--
	}
	s.now = at
	ran := s.dispatch(idx)
	s.slab[idx] = event{}
	s.free = append(s.free, idx)
	return ran
}

// Send transmits m (with From/To already set) through the link model. Loss
// and delay are decided at send time; the send itself is not recorded here —
// protocol code records send events explicitly, because the paper's send
// event belongs to the protocol history, not the wire.
func (s *Sim) Send(m Message) {
	s.Bytes += m.wireSize()
	delay, drop := s.links.Plan(s.rng, m, s.now)
	if drop {
		s.Dropped++
		return
	}
	if delay < 1 {
		delay = 1
	}
	s.push(s.now+delay, event{msg: m})
}

// TimerAt schedules Handler.OnTimer(tag) at process p at absolute virtual
// time at (clamped to now+1 if in the past).
func (s *Sim) TimerAt(p history.ProcID, at int64, tag string) {
	if at <= s.now {
		at = s.now + 1
	}
	s.push(at, event{msg: Message{To: p, Kind: tag}, timer: true})
}

// Pending returns the number of queued (undelivered) events.
func (s *Sim) Pending() int { return s.ringLen + len(s.far) }

// dispatch delivers the event in slab slot idx to its handler, returning
// whether a handler actually ran (crashed or unregistered processes —
// including ids outside the handler table — consume the event silently).
func (s *Sim) dispatch(idx int32) bool {
	ev := &s.slab[idx]
	p := ev.msg.To
	if uint(p) >= uint(len(s.handlers)) || s.Crashed(p) {
		return false
	}
	h := s.handlers[p]
	if h == nil {
		return false
	}
	if ev.timer {
		h.OnTimer(s, ev.msg.Kind)
	} else {
		s.Delivered++
		h.OnMessage(s, ev.msg)
	}
	return true
}

// Run processes events until the queue drains or virtual time exceeds
// until. It returns the number of events processed.
func (s *Sim) Run(until int64) int {
	n := 0
	for s.Pending() > 0 {
		at, far := s.next()
		if at > until {
			break
		}
		if s.step(at, far) {
			n++
		}
	}
	if s.now < until {
		s.now = until
	}
	return n
}

// RunToIdle processes events until the queue is empty, however far into
// virtual time they reach — the drain harnesses use it so final reads
// never race in-flight deliveries whose link-model delay (heavy-tail
// jitter, asynchronous stragglers) exceeds any fixed window. Unlike Run,
// virtual time stops at the last processed event rather than jumping to a
// horizon. safetyCap bounds the drain loudly: an event scheduled past it
// indicates a runaway model (or a handler scheduling unboundedly) rather
// than a legitimate tail, and panics instead of spinning forever.
func (s *Sim) RunToIdle(safetyCap int64) int {
	n := 0
	for s.Pending() > 0 {
		at, far := s.next()
		if at > safetyCap {
			panic(fmt.Sprintf("netsim: RunToIdle exceeded safety cap %d: next event at t=%d with %d pending", safetyCap, at, s.Pending()))
		}
		if s.step(at, far) {
			n++
		}
	}
	return n
}

// Broadcast sends m from `from` to every registered process including the
// sender itself (self-delivery is how LRC Validity — "if a correct process
// i sends m then i eventually receives m" — is realized). Each copy goes
// through the link model independently, so a Lossy model can drop
// individual copies: that is exactly the misbehaviour the Update Agreement
// experiments inject. Under a loss-free model this primitive satisfies the
// LRC properties of Definition 4.4 among correct processes.
func (s *Sim) Broadcast(from history.ProcID, m Message) {
	m.From = from
	if bp, ok := s.links.(BatchPlanner); ok {
		s.broadcastBatched(from, m, bp)
		return
	}
	for p, h := range s.handlers {
		if h == nil {
			continue
		}
		cp := m
		cp.To = history.ProcID(p)
		if cp.To == from {
			// Self-delivery bypasses the wire: local, next instant.
			s.push(s.now+1, event{msg: cp})
			continue
		}
		s.Send(cp)
	}
}

// broadcastBatched plans the whole fan-out with one BatchPlanner call. The
// delays are drawn in ascending destination order — the same rng sequence
// the per-send loop consumes — so batched and unbatched broadcasts yield
// byte-identical executions.
func (s *Sim) broadcastBatched(from history.ProcID, m Message, bp BatchPlanner) {
	wire := 0
	for p, h := range s.handlers {
		if h != nil && history.ProcID(p) != from {
			wire++
		}
	}
	if cap(s.delays) < wire {
		s.delays = make([]int64, wire)
	}
	delays := s.delays[:wire]
	bp.PlanBatch(s.rng, m, s.now, delays)
	ws := m.wireSize()
	i := 0
	for p, h := range s.handlers {
		if h == nil {
			continue
		}
		cp := m
		cp.To = history.ProcID(p)
		if cp.To == from {
			// Self-delivery bypasses the wire: local, next instant.
			s.push(s.now+1, event{msg: cp})
			continue
		}
		s.Bytes += ws
		d := delays[i]
		i++
		if d < 1 {
			d = 1
		}
		s.push(s.now+d, event{msg: cp})
	}
}
