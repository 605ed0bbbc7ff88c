package figures

import (
	"testing"

	"blockadt/internal/history"
)

func TestFig2Shape(t *testing.T) {
	h := Fig2(0)
	reads := h.Reads()
	if len(reads) != 6 {
		t.Fatalf("reads = %d, want 6", len(reads))
	}
	if got := reads[0].Chain.String(); got != "b0⌢1" {
		t.Fatalf("first read = %s", got)
	}
	if got := reads[5].Chain.String(); got != "b0⌢1⌢2⌢3⌢4" {
		t.Fatalf("last read = %s", got)
	}
	if got := len(h.SuccessfulAppends()); got != 4 {
		t.Fatalf("appends = %d, want 4", got)
	}
}

func TestFig2TailGrows(t *testing.T) {
	h := Fig2(5)
	reads := h.Reads()
	last := reads[len(reads)-1].Chain
	if len(last) != 1+4+5 {
		t.Fatalf("final chain length = %d, want 10", len(last))
	}
	if got := len(h.SuccessfulAppends()); got != 9 {
		t.Fatalf("appends = %d, want 9", got)
	}
}

func TestFig3DivergenceThenConvergence(t *testing.T) {
	h := Fig3(3)
	reads := h.Reads()
	// First two reads diverge.
	a, b := reads[0].Chain, reads[1].Chain
	if a.HasPrefix(b) || b.HasPrefix(a) {
		t.Fatalf("first reads must diverge: %s vs %s", a, b)
	}
	// Last two reads agree.
	n := len(reads)
	x, y := reads[n-1].Chain, reads[n-2].Chain
	if x.String() != y.String() {
		t.Fatalf("final reads must converge: %s vs %s", x, y)
	}
}

func TestFig4PersistentDivergence(t *testing.T) {
	h := Fig4(4)
	reads := h.Reads()
	n := len(reads)
	// The two final reads (one per process) still diverge.
	var lastI, lastJ history.Chain
	for _, r := range reads {
		if r.Op.Proc == ProcI {
			lastI = r.Chain
		} else {
			lastJ = r.Chain
		}
	}
	if lastI.HasPrefix(lastJ) || lastJ.HasPrefix(lastI) {
		t.Fatalf("final reads converged: %s vs %s", lastI, lastJ)
	}
	if n < 10 {
		t.Fatalf("reads = %d", n)
	}
}

func TestFiguresReadsAreProcessMonotone(t *testing.T) {
	for name, h := range map[string]*history.History{
		"fig2": Fig2(6), "fig3": Fig3(6), "fig4": Fig4(6),
	} {
		last := map[history.ProcID]int{}
		for _, r := range h.Reads() {
			s := len(r.Chain)
			if prev, ok := last[r.Op.Proc]; ok && s < prev {
				t.Fatalf("%s: process %d read scores regress", name, r.Op.Proc)
			}
			last[r.Op.Proc] = s
		}
	}
}

func TestCustomBuilder(t *testing.T) {
	h := NewCustom().
		At(5).AppendOK(2, "b0", "z").
		At(9).Read(2, "b0", "z").
		History()
	reads := h.Reads()
	if len(reads) != 1 || reads[0].Op.InvTime != 9 {
		t.Fatalf("reads = %+v", reads)
	}
	appends := h.SuccessfulAppends()
	if len(appends) != 1 || appends[0].Op.InvTime != 5 {
		t.Fatalf("appends = %+v", appends)
	}
}

func TestStallShape(t *testing.T) {
	const appends = 3
	h := Stall(appends)
	if got := len(h.SuccessfulAppends()); got != 6+appends {
		t.Fatalf("appends = %d, want %d", got, 6+appends)
	}
	reads := h.Reads()
	if got := len(reads); got != 2*6+4*appends+2 {
		t.Fatalf("reads = %d, want %d", got, 2*6+4*appends+2)
	}
	// The last two reads: i on the grown chain, j still on b0⌢1⌢…⌢6.
	i, j := reads[len(reads)-2], reads[len(reads)-1]
	if i.Op.Proc != ProcI || len(i.Chain) != 1+6+appends {
		t.Fatalf("i's last read = p%d %s", i.Op.Proc, i.Chain)
	}
	if j.Op.Proc != ProcJ || len(j.Chain) != 1+6 || !i.Chain.HasPrefix(j.Chain) {
		t.Fatalf("j's last read = p%d %s, want the stalled prefix of %s", j.Op.Proc, j.Chain, i.Chain)
	}
}
