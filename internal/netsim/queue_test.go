package netsim

import (
	"fmt"
	"slices"
	"testing"

	"blockadt/internal/history"
	"blockadt/internal/prng"
)

// refSim is the reference scheduler the calendar ring must reproduce: a
// single (at, seq) binary min-heap over every queued event, with handlers
// and crashes kept in maps. Its Send, TimerAt, Broadcast, Run and
// RunToIdle follow Sim's contract step for step, so two runs that make
// the same calls must dispatch the same events in the same order.
type refSim struct {
	now     int64
	seq     int64
	queue   []refItem
	links   LinkModel
	rng     *prng.Source
	procs   map[history.ProcID]bool
	crashed map[history.ProcID]bool
	deliver func(p history.ProcID, ev refEvent)
	delays  []int64
	// farPops counts dispatched events that were pushed W or more ticks
	// ahead, and ties the ticks at which such an event preceded one pushed
	// less than W ahead.
	farPops, ties int
	farAt         int64
}

type refEvent struct {
	msg    Message
	timer  bool
	tag    string
	proc   history.ProcID
	pushed int64 // now at push time
}

type refItem struct {
	at  int64
	seq int64
	ev  refEvent
}

func refLess(a, b refItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func newRefSim(links LinkModel, seed uint64) *refSim {
	return &refSim{links: links, rng: prng.New(seed), procs: map[history.ProcID]bool{}, crashed: map[history.ProcID]bool{}, farAt: -1}
}

func (r *refSim) Now() int64                { return r.now }
func (r *refSim) Pending() int              { return len(r.queue) }
func (r *refSim) Register(p history.ProcID) { r.procs[p] = true }
func (r *refSim) Crash(p history.ProcID)    { r.crashed[p] = true }

func (r *refSim) push(at int64, ev refEvent) {
	ev.pushed = r.now
	r.seq++
	r.queue = append(r.queue, refItem{at: at, seq: r.seq, ev: ev})
	q := r.queue
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !refLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (r *refSim) pop() refItem {
	q := r.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	r.queue = q
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if rc := c + 1; rc < n && refLess(q[rc], q[c]) {
			c = rc
		}
		if !refLess(q[c], q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	return top
}

func (r *refSim) Send(m Message) {
	delay, drop := r.links.Plan(r.rng, m, r.now)
	if drop {
		return
	}
	if delay < 1 {
		delay = 1
	}
	r.push(r.now+delay, refEvent{msg: m, proc: m.To})
}

func (r *refSim) TimerAt(p history.ProcID, at int64, tag string) {
	if at <= r.now {
		at = r.now + 1
	}
	r.push(at, refEvent{timer: true, tag: tag, proc: p})
}

func (r *refSim) sortedProcs() []history.ProcID {
	var ps []history.ProcID
	for p := range r.procs {
		ps = append(ps, p)
	}
	slices.Sort(ps)
	return ps
}

func (r *refSim) Broadcast(from history.ProcID, m Message) {
	m.From = from
	procs := r.sortedProcs()
	bp, batched := r.links.(BatchPlanner)
	if batched {
		r.delays = r.delays[:0]
		for _, p := range procs {
			if p != from {
				r.delays = append(r.delays, 0)
			}
		}
		bp.PlanBatch(r.rng, m, r.now, r.delays)
	}
	i := 0
	for _, p := range procs {
		cp := m
		cp.To = p
		switch {
		case p == from:
			r.push(r.now+1, refEvent{msg: cp, proc: p})
		case batched:
			d := max(r.delays[i], 1)
			i++
			r.push(r.now+d, refEvent{msg: cp, proc: p})
		default:
			r.Send(cp)
		}
	}
}

// step pops and dispatches the next event, reporting whether a handler
// ran.
func (r *refSim) step() bool {
	it := r.pop()
	r.now = it.at
	if it.at-it.ev.pushed >= ringWidth {
		r.farPops++
		r.farAt = it.at
	} else if r.farAt == it.at {
		r.ties++
		r.farAt = -1
	}
	if r.crashed[it.ev.proc] || !r.procs[it.ev.proc] {
		return false
	}
	r.deliver(it.ev.proc, it.ev)
	return true
}

func (r *refSim) Run(until int64) int {
	n := 0
	for len(r.queue) > 0 && r.queue[0].at <= until {
		if r.step() {
			n++
		}
	}
	if r.now < until {
		r.now = until
	}
	return n
}

func (r *refSim) RunToIdle() int {
	n := 0
	for len(r.queue) > 0 {
		if r.step() {
			n++
		}
	}
	return n
}

// skewedLinks draws delays from 1 to 3·W, a quarter of them at the ring's
// edge (W-2 … W+1), so sends land in the ring and in the far heap alike.
// PlanBatch consumes the rng exactly as consecutive Plan calls do.
type skewedLinks struct{}

func (skewedLinks) Name() string { return "skewed" }

func (skewedLinks) Plan(rng *prng.Source, _ Message, _ int64) (int64, bool) {
	return skewedDelay(rng), false
}

func (skewedLinks) PlanBatch(rng *prng.Source, _ Message, _ int64, delays []int64) {
	for i := range delays {
		delays[i] = skewedDelay(rng)
	}
}

func skewedDelay(rng *prng.Source) int64 {
	switch rng.Int63n(4) {
	case 0:
		return 1 + rng.Int63n(8)
	case 1:
		return ringWidth - 2 + rng.Int63n(4)
	case 2:
		return 1 + rng.Int63n(ringWidth)
	default:
		return 1 + rng.Int63n(3*ringWidth)
	}
}

// world is the scheduling surface the workload drives; *Sim and *refSim
// both provide it.
type world interface {
	Now() int64
	Pending() int
	Send(Message)
	TimerAt(history.ProcID, int64, string)
	Broadcast(history.ProcID, Message)
}

// dispatched is one handler invocation as the workload saw it.
type dispatched struct {
	at      int64
	proc    history.ProcID
	timer   bool
	label   string // the timer's tag or the message's block
	pending int
}

// workload keeps each process's heartbeat timer re-arming every 1 to 8
// ticks until the horizon, and reacts to a heartbeat (and, rarely, to any
// other dispatch) with a seeded random mix of sends (including to
// unregistered, out-of-range and negative ids), timers (including ones in
// the past) and broadcasts. Two workloads with the same seed make the same
// calls as long as they are dispatched the same events.
type workload struct {
	w       world
	rng     *prng.Source
	horizon int64
	labels  int
	log     []dispatched
}

func (wl *workload) label() string {
	wl.labels++
	return fmt.Sprintf("e%d", wl.labels)
}

func (wl *workload) on(p history.ProcID, timer bool, label string) {
	now := wl.w.Now()
	wl.log = append(wl.log, dispatched{at: now, proc: p, timer: timer, label: label, pending: wl.w.Pending()})
	if now >= wl.horizon {
		return
	}
	actions := int64(0)
	if timer && label == "hb" {
		wl.w.TimerAt(p, now+1+wl.rng.Int63n(8), "hb")
		actions = wl.rng.Int63n(3)
	} else if wl.rng.Int63n(8) == 0 {
		actions = 1
	}
	for ; actions > 0; actions-- {
		switch r := wl.rng.Int63n(20); {
		case r < 9:
			wl.w.TimerAt(p, now+skewedDelay(wl.rng)-wl.rng.Int63n(3), wl.label())
		case r < 18:
			to := history.ProcID(wl.rng.Int63n(11)) - 1 // -1 … 9
			wl.w.Send(Message{From: p, To: to, Block: history.BlockRef(wl.label())})
		default:
			wl.w.Broadcast(p, Message{Block: history.BlockRef(wl.label())})
		}
	}
}

// TestQueueOrderMatchesHeap drives the calendar-ring Sim and the heap
// reference with the same seeded workload and checks that every dispatch
// — its time, process, and timer tag or message block — and the queue
// depth it sees agree step by step, through Run slices that stop between
// ticks, a crash mid-run and a final RunToIdle. The workload must hit the
// far heap and same-tick ties between far and ring events, or the test
// proves nothing about the merge.
func TestQueueOrderMatchesHeap(t *testing.T) {
	registered := []history.ProcID{0, 1, 2, 3, 4, 5, 7} // 6 is a hole, 8 and 9 lie past the end
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			for _, links := range []LinkModel{skewedLinks{}, Lossy{Inner: skewedLinks{}}} {
				s := New(links, seed)
				ref := newRefSim(links, seed)
				got := &workload{w: s, rng: prng.New(seed + 100), horizon: 30 * ringWidth}
				want := &workload{w: ref, rng: prng.New(seed + 100), horizon: 30 * ringWidth}
				for _, p := range registered {
					s.Register(p, HandlerFuncs{
						Message: func(_ *Sim, m Message) { got.on(p, false, string(m.Block)) },
						Timer:   func(_ *Sim, tag string) { got.on(p, true, tag) },
					})
					ref.Register(p)
				}
				ref.deliver = func(p history.ProcID, ev refEvent) {
					label := ev.tag
					if !ev.timer {
						label = string(ev.msg.Block)
					}
					want.on(p, ev.timer, label)
				}
				for _, p := range registered {
					s.TimerAt(p, int64(p)+1, "hb")
					ref.TimerAt(p, int64(p)+1, "hb")
					s.Broadcast(p, Message{Block: history.BlockRef(got.label())})
					ref.Broadcast(p, Message{Block: history.BlockRef(want.label())})
				}
				check := func(stage string, gn, wn int) {
					t.Helper()
					if i := firstDiff(got.log, want.log); i >= 0 {
						t.Fatalf("%s %s: dispatch %d is %s, reference %s", links.Name(), stage, i, entry(got.log, i), entry(want.log, i))
					}
					if gn != wn || s.Pending() != ref.Pending() || s.Now() != ref.Now() {
						t.Fatalf("%s %s: ran %d, pending %d at t=%d; reference ran %d, pending %d at t=%d",
							links.Name(), stage, gn, s.Pending(), s.Now(), wn, ref.Pending(), ref.Now())
					}
				}
				slicer := prng.New(seed + 200)
				for s.Now() < got.horizon {
					if s.Now() >= got.horizon/2 && !s.Crashed(3) {
						s.Crash(3)
						ref.Crash(3)
					}
					until := s.Now() + 1 + slicer.Int63n(2*ringWidth)
					check(fmt.Sprintf("Run(%d)", until), s.Run(until), ref.Run(until))
				}
				check("RunToIdle", s.RunToIdle(1<<40), ref.RunToIdle())
				if !s.Crashed(3) || s.Crashed(6) || s.Crashed(-1) {
					t.Fatal("crash bookkeeping")
				}
				if ref.farPops == 0 || ref.ties == 0 {
					t.Fatalf("%s: %d far events and %d far/ring ties dispatched, want both > 0", links.Name(), ref.farPops, ref.ties)
				}
			}
		})
	}
}

// firstDiff returns the first index at which the logs differ, or -1.
func firstDiff(a, b []dispatched) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func entry(log []dispatched, i int) string {
	if i >= len(log) {
		return "missing"
	}
	return fmt.Sprintf("%+v", log[i])
}
