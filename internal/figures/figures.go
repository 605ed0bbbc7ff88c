// Package figures constructs the example concurrent histories of Figures
// 2, 3 and 4 of "Blockchain Abstract Data Type" (Anceaume et al.), which
// the paper uses to illustrate the consistency criteria:
//
//   - Figure 2: a history satisfying BT Strong Consistency — the selection
//     function is longest-chain with lexicographic tie-break and the score
//     is the length;
//   - Figure 3: a history satisfying BT Eventual Consistency but violating
//     Strong Prefix (two processes temporarily on divergent branches that
//     converge);
//   - Figure 4: a history satisfying no BT consistency criterion (the
//     divergence persists forever).
//
// The constructors also accept a tail length: the figures' histories are
// infinite, so tests extend the convergent suffix far enough to outlast any
// finitization grace window.
package figures

import (
	"fmt"

	"blockadt/internal/history"
)

// builder accumulates a history with explicit virtual times.
type builder struct {
	rec  *history.Recorder
	tick int64
}

type manualClock struct{ t *int64 }

func (c manualClock) Now() int64 { return *c.t }

func newBuilder() *builder {
	b := &builder{}
	b.rec = history.NewRecorderWithClock(manualClock{t: &b.tick})
	return b
}

func (b *builder) at(t int64) *builder { b.tick = t; return b }

// appendOK records a successful append(block) on proc with the given
// parent, spanning one tick.
func (b *builder) appendOK(p history.ProcID, parent, block history.BlockRef) {
	op := b.rec.Invoke(p, history.Label{Kind: history.KindAppend, Block: block})
	b.tick++
	b.rec.Respond(op, history.Label{Kind: history.KindAppend, Block: block, Parent: parent, OK: true})
}

// read records a read() on proc returning the chain, spanning one tick.
func (b *builder) read(p history.ProcID, chain ...history.BlockRef) {
	op := b.rec.Invoke(p, history.Label{Kind: history.KindRead})
	b.tick++
	b.rec.Respond(op, history.Label{Kind: history.KindRead, Chain: history.Chain(chain)})
}

func (b *builder) done() *history.History { return b.rec.Snapshot() }

// chain builds a history.Chain from block names.
func chain(blocks ...string) []history.BlockRef {
	out := make([]history.BlockRef, len(blocks))
	for i, s := range blocks {
		out[i] = history.BlockRef(s)
	}
	return out
}

// Processes used by the figures.
const (
	ProcI history.ProcID = 0
	ProcJ history.ProcID = 1
)

// Fig2 builds the Figure 2 history: both processes read along the single
// chain b0⌢1⌢2⌢3⌢4…, every pair of returned chains prefix-related, scores
// growing. tail extends the growth beyond length 4 with alternating reads,
// one block per step, to model the figure's infinite continuation.
func Fig2(tail int) *history.History {
	b := newBuilder()
	// Blocks 1..4 are appended as the figure assumes.
	b.at(1).appendOK(ProcI, "b0", "1")
	b.at(3).appendOK(ProcJ, "1", "2")
	b.at(5).appendOK(ProcI, "2", "3")
	b.at(7).appendOK(ProcJ, "3", "4")

	b.at(10).read(ProcJ, chain("b0", "1")...)
	b.at(12).read(ProcI, chain("b0", "1", "2")...)
	b.at(14).read(ProcJ, chain("b0", "1", "2")...)
	b.at(16).read(ProcI, chain("b0", "1", "2", "3")...) // the reference read, l=3
	b.at(18).read(ProcI, chain("b0", "1", "2", "3", "4")...)
	b.at(20).read(ProcJ, chain("b0", "1", "2", "3", "4")...)

	// Infinite continuation: the chain keeps growing and both processes
	// keep reading it.
	cur := chain("b0", "1", "2", "3", "4")
	t := int64(22)
	for i := 0; i < tail; i++ {
		next := history.BlockRef(fmt.Sprintf("%d", 5+i))
		b.at(t).appendOK(ProcI, cur[len(cur)-1], next)
		cur = append(cur, next)
		t += 2
		b.at(t).read(ProcI, cur...)
		t += 2
		b.at(t).read(ProcJ, cur...)
		t += 2
	}
	return b.done()
}

// Fig3 builds the Figure 3 history: process i first adopts the branch
// b0⌢2⌢4 while process j is on b0⌢1; both later converge on the branch
// b0⌢1⌢3⌢5…, so Strong Prefix is violated (b0⌢1 ⋢ b0⌢2⌢4 and vice versa)
// but Eventual Prefix holds. tail extends the convergent suffix.
func Fig3(tail int) *history.History {
	b := newBuilder()
	// Appends: 1 and 2 fork from b0; 3 extends 1; 4 extends 2; 5
	// extends 3. (Blocks named as in the figure.)
	b.at(1).appendOK(ProcJ, "b0", "1")
	b.at(2).appendOK(ProcI, "b0", "2")
	b.at(3).appendOK(ProcJ, "1", "3")
	b.at(4).appendOK(ProcI, "2", "4")
	b.at(5).appendOK(ProcJ, "3", "5")

	// First reads: i on the 2-branch, j on the 1-branch.
	b.at(10).read(ProcI, chain("b0", "2", "4")...) // the reference read, l=2
	b.at(12).read(ProcJ, chain("b0", "1")...)
	// Convergence begins: i switches to the now-longer 1-branch.
	b.at(14).read(ProcJ, chain("b0", "1", "3")...)
	b.at(16).read(ProcI, chain("b0", "1", "3")...)
	b.at(18).read(ProcI, chain("b0", "1", "3", "5")...)
	b.at(20).read(ProcJ, chain("b0", "1", "3", "5")...)

	// Infinite convergent continuation along the odd branch.
	cur := chain("b0", "1", "3", "5")
	t := int64(22)
	for i := 0; i < tail; i++ {
		next := history.BlockRef(fmt.Sprintf("%d", 7+2*i))
		b.at(t).appendOK(ProcJ, cur[len(cur)-1], next)
		cur = append(cur, next)
		t += 2
		b.at(t).read(ProcI, cur...)
		t += 2
		b.at(t).read(ProcJ, cur...)
		t += 2
	}
	return b.done()
}

// Fig4 builds the Figure 4 history: the two processes stay on divergent
// branches forever — i on b0⌢2⌢4⌢6…, j on b0⌢1⌢3⌢5… — so no BT
// consistency criterion holds. tail extends both divergent branches.
func Fig4(tail int) *history.History {
	b := newBuilder()
	b.at(1).appendOK(ProcJ, "b0", "1")
	b.at(2).appendOK(ProcI, "b0", "2")
	b.at(3).appendOK(ProcJ, "1", "3")
	b.at(4).appendOK(ProcI, "2", "4")
	b.at(5).appendOK(ProcJ, "3", "5")
	b.at(6).appendOK(ProcI, "4", "6")

	b.at(10).read(ProcI, chain("b0", "2", "4")...) // reference read, l=2
	b.at(12).read(ProcJ, chain("b0", "1")...)
	b.at(14).read(ProcJ, chain("b0", "1", "3")...)
	b.at(16).read(ProcI, chain("b0", "2", "4", "6")...)
	b.at(18).read(ProcJ, chain("b0", "1", "3", "5")...)

	// Persistent divergence.
	even := chain("b0", "2", "4", "6")
	odd := chain("b0", "1", "3", "5")
	t := int64(20)
	for i := 0; i < tail; i++ {
		nextEven := history.BlockRef(fmt.Sprintf("%d", 8+2*i))
		nextOdd := history.BlockRef(fmt.Sprintf("%d", 7+2*i))
		b.at(t).appendOK(ProcI, even[len(even)-1], nextEven)
		even = append(even, nextEven)
		t++
		b.at(t).appendOK(ProcJ, odd[len(odd)-1], nextOdd)
		odd = append(odd, nextOdd)
		t++
		b.at(t).read(ProcI, even...)
		t += 2
		b.at(t).read(ProcJ, odd...)
		t += 2
	}
	return b.done()
}

// Custom exposes the builder so tests can assemble bespoke histories
// (e.g. the Figure 13 update-agreement execution) with explicit timing.
type Custom struct{ b *builder }

// NewCustom returns an empty history builder.
func NewCustom() *Custom { return &Custom{b: newBuilder()} }

// At sets the current virtual time.
func (c *Custom) At(t int64) *Custom { c.b.at(t); return c }

// AppendOK records a successful append.
func (c *Custom) AppendOK(p history.ProcID, parent, block history.BlockRef) *Custom {
	c.b.appendOK(p, parent, block)
	return c
}

// Read records a read returning the given chain.
func (c *Custom) Read(p history.ProcID, blocks ...string) *Custom {
	c.b.read(p, chain(blocks...)...)
	return c
}

// Record records a raw collapsed event (send/receive/update).
func (c *Custom) Record(p history.ProcID, l history.Label) *Custom {
	c.b.rec.Record(p, l)
	return c
}

// History returns the built history.
func (c *Custom) History() *history.History { return c.b.done() }
