package netsim

import (
	"fmt"
	"runtime"
	"testing"

	"blockadt/internal/blocktree"
	"blockadt/internal/history"
)

// TestBroadcastAllocs pins the allocation-free event core: once the event
// slab and the batch-planning scratch have warmed up, a broadcast fan-out
// plus its delivery drain must not allocate at all — events are values in
// a recycled slab, queued by index in the calendar ring, and Synchronous
// plans the whole fan-out through the batched path. AllocsPerRun's warm-up
// call grows the buffers; the measured runs must then stay on the steady
// state.
func TestBroadcastAllocs(t *testing.T) {
	const n = 64
	s := New(Synchronous{Delta: 8}, 1)
	for i := 0; i < n; i++ {
		s.Register(history.ProcID(i), HandlerFuncs{})
	}
	allocs := testing.AllocsPerRun(200, func() {
		s.Broadcast(0, Message{Kind: "ping"})
		s.Run(s.Now() + 16)
	})
	if allocs > 0 {
		t.Fatalf("Broadcast+Run allocated %.1f objects per fan-out, want 0", allocs)
	}
}

// TestTimerRearmAllocs pins the most common event of the simulated
// chains, a mining attempt: a timer whose handler re-arms it through
// TimerAt. The re-armed timer takes a free slab slot, and the fired one's
// slot is freed once its handler returns, so the cycle alternates between
// two slots and allocates nothing. AllocsPerRun rounds amortized growth
// down to zero, so the slab's size is pinned as well.
func TestTimerRearmAllocs(t *testing.T) {
	s := New(Synchronous{Delta: 8}, 1)
	s.Register(0, HandlerFuncs{Timer: func(s *Sim, tag string) {
		s.TimerAt(0, s.Now()+4, tag)
	}})
	s.TimerAt(0, 1, "mine")
	fired := 0
	allocs := testing.AllocsPerRun(200, func() {
		fired += s.Run(s.Now() + 4)
	})
	if allocs > 0 {
		t.Fatalf("timer fire + re-arm allocated %.1f objects per cycle, want 0", allocs)
	}
	if fired != 201 || s.Pending() != 1 || len(s.slab) != 2 {
		t.Fatalf("fired %d timers with %d pending in a %d-slot slab, want 201 with 1 in 2", fired, s.Pending(), len(s.slab))
	}
}

// TestReplicaDeliveryAllocs pins a replica's delivery path, receive_j then
// update_j for each block: a 512-block chain delivered in order as
// *blocktree.Block messages to a replica pre-sized for it, recording into
// a reserved recorder, averages at most 0.05 allocations per delivery.
// The block is copied once, into the tree's slab; a payload boxed per
// delivery, a pending-buffer lookup that allocates, or a recorder that
// outgrows its reservation fails the bound.
func TestReplicaDeliveryAllocs(t *testing.T) {
	const n = 512
	s := New(Synchronous{Delta: 2}, 1)
	s.Recorder().Reserve(2*n + 16)
	rep := NewReplicaCap(0, blocktree.LongestChain{}, s.Recorder(), n+1)
	s.Register(0, rep)
	msgs := make([]Message, n)
	parent := blocktree.GenesisID
	for i := range msgs {
		b := &blocktree.Block{ID: blocktree.BlockID(fmt.Sprintf("b%04d", i)), Parent: parent, Work: 1, Token: uint64(i + 1), Proposer: 1}
		msgs[i] = Message{From: 1, To: 0, Kind: UpdateMsg, Parent: parent, Block: b.ID, Origin: 1, Payload: b}
		parent = b.ID
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, m := range msgs {
		rep.OnMessage(s, m)
	}
	runtime.ReadMemStats(&after)
	if h := rep.Tree().Height(); h != n {
		t.Fatalf("replica holds a %d-block chain after %d deliveries, want %d", h, n, n)
	}
	if per := float64(after.Mallocs-before.Mallocs) / n; per > 0.05 {
		t.Fatalf("a delivery averaged %.3f allocations (%d for %d), want ≤ 0.05", per, after.Mallocs-before.Mallocs, n)
	}
}

// TestReplicaReadAllocs pins a replica's read path on a reserved
// recorder: a 512-block chain delivered block by block, with a one-block
// fork every 16 blocks that the next block reorganizes away, read after
// every delivery. Each read starting a fresh chain buffer (the first, a
// reorg, or a chain that outgrew its buffer) carves it from the
// recorder's chain arena, so after the first read the reads average at
// most 0.05 allocations. A read path that allocated its fresh buffers,
// or one that copied the chain per read, fails the bound.
func TestReplicaReadAllocs(t *testing.T) {
	const n = 512
	s := New(Synchronous{Delta: 2}, 1)
	s.Recorder().Reserve(1 << 14)
	rep := NewReplicaCap(0, blocktree.LongestChain{}, s.Recorder(), n+n/16+1)
	s.Register(0, rep)
	var msgs []Message
	deliver := func(id, parent blocktree.BlockID) {
		b := &blocktree.Block{ID: id, Parent: parent, Work: 1, Token: uint64(len(msgs) + 1), Proposer: 1}
		msgs = append(msgs, Message{From: 1, To: 0, Kind: UpdateMsg, Parent: parent, Block: id, Origin: 1, Payload: b})
	}
	parent := blocktree.GenesisID
	for i := 1; i <= n; i++ {
		if i%16 == 0 && i < n {
			// The fork's id sorts after the main chain's, so it wins the
			// tie at its height until the main chain's next block.
			deliver(blocktree.BlockID(fmt.Sprintf("f%04d", i)), parent)
		}
		id := blocktree.BlockID(fmt.Sprintf("b%04d", i))
		deliver(id, parent)
		parent = id
	}
	rep.OnMessage(s, msgs[0])
	rep.ReadIDs()
	var before, after runtime.MemStats
	var mallocs uint64
	for _, m := range msgs[1:] {
		rep.OnMessage(s, m)
		runtime.ReadMemStats(&before)
		rep.ReadIDs()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	h := s.Recorder().Finalize()
	if got := h.MaxReorg(); got != 1 {
		t.Fatalf("the reads saw a deepest rollback of %d blocks, want 1", got)
	}
	if c := h.Reads()[len(h.Reads())-1].Chain; len(c) != n+1 || c[n] != parent {
		t.Fatalf("the last read returned %d blocks ending in %s, want %d ending in %s", len(c), c[len(c)-1], n+1, parent)
	}
	reads := len(msgs) - 1
	if per := float64(mallocs) / float64(reads); per > 0.05 {
		t.Fatalf("a read averaged %.3f allocations (%d for %d), want ≤ 0.05", per, mallocs, reads)
	}
}
