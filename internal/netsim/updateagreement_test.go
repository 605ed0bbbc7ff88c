package netsim

import (
	"fmt"
	"testing"

	"blockadt/internal/blocktree"
	"blockadt/internal/consistency"
	"blockadt/internal/history"
)

// replicaNet wires n replicas with periodic block creation at proc 0 and
// periodic reads everywhere — the minimal replicated BT-ADT protocol of
// Section 4.2.
func replicaNet(t *testing.T, links LinkModel, n int, blocks int, seed uint64) (*Sim, map[history.ProcID]*Replica) {
	t.Helper()
	s := New(links, seed)
	reps := map[history.ProcID]*Replica{}
	for i := 0; i < n; i++ {
		id := history.ProcID(i)
		rep := NewReplica(id, blocktree.LongestChain{}, s.Recorder())
		reps[id] = rep
		s.Register(id, rep)
	}
	// Proc 0 creates `blocks` blocks, one every 10 ticks, each chaining
	// to its local tip; everyone reads every 7 ticks.
	creator := reps[0]
	count := 0
	s.Register(0, HandlerFuncs{
		Message: func(s *Sim, m Message) { creator.OnMessage(s, m) },
		Timer: func(s *Sim, tag string) {
			switch tag {
			case "create":
				if count < blocks {
					parent := creator.Selected().Tip()
					b := blocktree.Block{ID: blocktree.BlockID(fmt.Sprintf("c%03d", count)), Parent: parent.ID, Token: uint64(count + 1)}
					count++
					creator.CreateAndBroadcast(s, parent.ID, b)
					s.TimerAt(0, s.Now()+10, "create")
				}
			case "read":
				creator.Read()
				s.TimerAt(0, s.Now()+7, "read")
			}
		},
	})
	s.TimerAt(0, 1, "create")
	for i := 0; i < n; i++ {
		id := history.ProcID(i)
		if i == 0 {
			s.TimerAt(0, 2, "read")
			continue
		}
		rep := reps[id]
		s.Register(id, HandlerFuncs{
			Message: func(s *Sim, m Message) { rep.OnMessage(s, m) },
			Timer: func(s *Sim, tag string) {
				rep.Read()
				s.TimerAt(rep.ID(), s.Now()+7, "read")
			},
		})
		s.TimerAt(id, 2+int64(i), "read")
	}
	return s, reps
}

// stopReads drains the run: run to t, then perform one final read per
// replica so convergence is visible in the history tail.
func finishRun(s *Sim, reps map[history.ProcID]*Replica, t int64) {
	s.Run(t)
	for _, p := range s.Procs() {
		reps[p].Read()
	}
}

// TestFig13UpdateAgreementOverLRC: a loss-free synchronous run of the
// replicated BT-ADT satisfies the Update Agreement properties R1–R3 and
// the LRC properties — the compliant history of Figure 13 generated by a
// real protocol run.
func TestFig13UpdateAgreementOverLRC(t *testing.T) {
	s, reps := replicaNet(t, Synchronous{Delta: 4}, 3, 10, 11)
	finishRun(s, reps, 400)
	h := s.Recorder().Snapshot()
	opts := consistency.Options{Procs: []history.ProcID{0, 1, 2}}
	if v := consistency.UpdateAgreement(h, opts); !v.Satisfied {
		t.Fatalf("update agreement violated on a reliable run: %s", v)
	}
	if v := consistency.LRC(h, opts); !v.Satisfied {
		t.Fatalf("LRC violated on a reliable run: %s", v)
	}
	// And the run is eventually consistent (here even strongly: single
	// writer, single chain).
	if rep := consistency.CheckEC(h, opts); !rep.Satisfied() {
		t.Fatalf("reliable run not EC:\n%s", rep)
	}
}

// TestLemma45DroppedMessageViolatesEventualPrefix is the executable
// Lemma 4.5 / Theorem 4.7: dropping every copy of one correct process's
// update towards one peer (violating R3 / LRC Agreement) yields a history
// that violates the Eventual Prefix property — process k stays on b0
// forever while others grow.
func TestLemma45DroppedMessageViolatesEventualPrefix(t *testing.T) {
	// Drop everything addressed to process 2: it never receives any
	// update (the "even only one message dropped" scenario amplified so
	// the divergence is permanent, as in the lemma's construction where
	// the missing update starts an ever-growing divergence).
	rule := func(m Message, _ int64) bool { return m.Kind == UpdateMsg && m.To == 2 }
	s, reps := replicaNet(t, Lossy{Inner: Synchronous{Delta: 4}, Rule: rule}, 3, 12, 13)
	finishRun(s, reps, 600)
	h := s.Recorder().Snapshot()
	opts := consistency.Options{Procs: []history.ProcID{0, 1, 2}, GraceWindow: 8}

	// The communication predicates flag the drop...
	if v := consistency.UpdateAgreement(h, opts); v.Satisfied {
		t.Fatal("R3 unexpectedly satisfied despite drops")
	}
	if v := consistency.LRC(h, opts); v.Satisfied {
		t.Fatal("LRC agreement unexpectedly satisfied despite drops")
	}
	// ...and, as the lemma proves, Eventual Prefix fails: process 2's
	// reads stay at b0 while others' scores grow.
	if v := consistency.EventualPrefix(h, opts); v.Satisfied {
		t.Fatal("Eventual Prefix satisfied despite a correct process's updates never arriving")
	}
	if rep := consistency.CheckEC(h, opts); rep.Satisfied() {
		t.Fatal("EC satisfied without update agreement — contradicts Theorem 4.6")
	}
}

// TestLemma44SendOmissionViolatesEventualPrefix: the R1 variant — the
// creator applies updates locally but never sends them (crashed network
// interface). Its own reads grow, everyone else stays at genesis.
func TestLemma44SendOmissionViolatesEventualPrefix(t *testing.T) {
	rule := func(m Message, _ int64) bool { return m.Kind == UpdateMsg && m.From == 0 && m.To != 0 }
	s, reps := replicaNet(t, Lossy{Inner: Synchronous{Delta: 4}, Rule: rule}, 3, 12, 17)
	finishRun(s, reps, 600)
	h := s.Recorder().Snapshot()
	opts := consistency.Options{Procs: []history.ProcID{0, 1, 2}, GraceWindow: 8}
	if v := consistency.EventualPrefix(h, opts); v.Satisfied {
		t.Fatal("Eventual Prefix survived send omission")
	}
}

// TestReplicaOutOfOrderDelivery: a replica receiving a child before its
// parent buffers it and applies both once the gap fills, preserving R2.
func TestReplicaOutOfOrderDelivery(t *testing.T) {
	rec := history.NewRecorder()
	s := New(Synchronous{Delta: 2}, 1)
	rep := NewReplica(5, blocktree.LongestChain{}, rec)
	s.Register(5, rep)

	child := &blocktree.Block{ID: "child", Parent: "parent", Token: 2}
	parent := &blocktree.Block{ID: "parent", Parent: "b0", Token: 1}
	rep.OnMessage(s, Message{Kind: UpdateMsg, Parent: "parent", Block: "child", Origin: 1, Payload: child})
	if rep.Tree().Has("child") {
		t.Fatal("orphan applied before its parent")
	}
	if rep.PendingCount() != 1 {
		t.Fatalf("pending = %d", rep.PendingCount())
	}
	rep.OnMessage(s, Message{Kind: UpdateMsg, Parent: "b0", Block: "parent", Origin: 1, Payload: parent})
	if !rep.Tree().Has("parent") || !rep.Tree().Has("child") {
		t.Fatal("gap fill did not apply both blocks")
	}
	if rep.PendingCount() != 0 {
		t.Fatalf("pending = %d after drain", rep.PendingCount())
	}
	if got := rep.Read().String(); got != "b0⌢parent⌢child" {
		t.Fatalf("read = %s", got)
	}
}

// TestReplicaIgnoresForeignKinds: non-update messages are ignored.
func TestReplicaIgnoresForeignKinds(t *testing.T) {
	rec := history.NewRecorder()
	s := New(Synchronous{Delta: 2}, 1)
	rep := NewReplica(0, blocktree.LongestChain{}, rec)
	rep.OnMessage(s, Message{Kind: "vote", Block: "x"})
	if rec.Snapshot().Len() != 0 {
		t.Fatal("foreign message recorded")
	}
}

// TestAllReplicasConverge: after a loss-free run every replica's tree
// contains every block (the R3 closure realized).
func TestAllReplicasConverge(t *testing.T) {
	s, reps := replicaNet(t, Synchronous{Delta: 4}, 5, 15, 19)
	finishRun(s, reps, 800)
	want := reps[0].Tree().Size()
	if want != 16 { // genesis + 15
		t.Fatalf("creator tree size = %d", want)
	}
	for p, r := range reps {
		if got := r.Tree().Size(); got != want {
			t.Fatalf("replica %d size = %d, want %d", p, got, want)
		}
		if r.PendingCount() != 0 {
			t.Fatalf("replica %d still has pending blocks", p)
		}
	}
}
