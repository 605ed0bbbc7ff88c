package consistency

import (
	"testing"

	"blockadt/internal/figures"
)

// The figure histories are built with a convergent/divergent tail of 12
// extension steps; a grace window of 8 reads sits well inside that tail, so
// persistent divergence is detected and transient divergence forgiven.
var figOpts = Options{GraceWindow: 8}

// TestFig2SatisfiesSC: the Figure 2 history satisfies the BT Strong
// Consistency criterion (all four properties).
func TestFig2SatisfiesSC(t *testing.T) {
	h := figures.Fig2(12)
	rep := CheckSC(h, figOpts)
	if !rep.Satisfied() {
		t.Fatalf("Figure 2 must satisfy SC:\n%s", rep)
	}
}

// TestFig2SatisfiesEC: by Theorem 3.1, Figure 2 also satisfies EC.
func TestFig2SatisfiesEC(t *testing.T) {
	h := figures.Fig2(12)
	rep := CheckEC(h, figOpts)
	if !rep.Satisfied() {
		t.Fatalf("Figure 2 must satisfy EC (Theorem 3.1):\n%s", rep)
	}
}

// TestFig3SatisfiesECNotSC: the Figure 3 history satisfies Eventual but
// not Strong consistency — Strong Prefix is violated by b0⌢1 vs b0⌢2⌢4.
func TestFig3SatisfiesECNotSC(t *testing.T) {
	h := figures.Fig3(12)
	ec := CheckEC(h, figOpts)
	if !ec.Satisfied() {
		t.Fatalf("Figure 3 must satisfy EC:\n%s", ec)
	}
	sc := CheckSC(h, figOpts)
	if sc.Satisfied() {
		t.Fatal("Figure 3 must violate SC")
	}
	// Specifically the Strong Prefix property fails, nothing else.
	for _, v := range sc.Verdicts {
		if v.Property == "StrongPrefix" && v.Satisfied {
			t.Fatal("StrongPrefix unexpectedly satisfied")
		}
		if v.Property != "StrongPrefix" && !v.Satisfied {
			t.Fatalf("unexpected violation: %s", v)
		}
	}
}

// TestFig4SatisfiesNeither: the Figure 4 history, whose branches diverge
// forever, violates both criteria.
func TestFig4SatisfiesNeither(t *testing.T) {
	h := figures.Fig4(12)
	if rep := CheckSC(h, figOpts); rep.Satisfied() {
		t.Fatal("Figure 4 must violate SC")
	}
	ec := CheckEC(h, figOpts)
	if ec.Satisfied() {
		t.Fatal("Figure 4 must violate EC")
	}
	// The Eventual Prefix property is the one that fails.
	failed := map[string]bool{}
	for _, p := range ec.Failed() {
		failed[p] = true
	}
	if !failed["EventualPrefix"] {
		t.Fatalf("expected EventualPrefix violation, got %v", ec.Failed())
	}
}

// TestClassifyLevels: Classify assigns the figures their paper levels.
func TestClassifyLevels(t *testing.T) {
	if got := Classify(figures.Fig2(12), figOpts).Level; got != LevelSC {
		t.Fatalf("Fig2 level = %s, want SC", got)
	}
	if got := Classify(figures.Fig3(12), figOpts).Level; got != LevelEC {
		t.Fatalf("Fig3 level = %s, want EC", got)
	}
	if got := Classify(figures.Fig4(12), figOpts).Level; got != LevelNone {
		t.Fatalf("Fig4 level = %s, want none", got)
	}
}

// TestStallViolatesEverGrowingTree: process j stops receiving while i
// makes 3 more appends, fewer than the grace window of 8. Only reads
// after i's last append are the plateau of the finite prefix, so j's
// stalled reads before it are constrained and Ever Growing Tree fails.
// Every other SC property holds, which is how a rule that exempted reads
// followed by fewer than W growth events classified this stall SC.
func TestStallViolatesEverGrowingTree(t *testing.T) {
	h := figures.Stall(3)
	v := EverGrowingTree(h, figOpts)
	if v.Satisfied || v.Checked == 0 {
		t.Fatalf("a stalled reader passed Ever Growing Tree (%d reads checked): %s", v.Checked, v)
	}
	for _, v := range CheckSC(h, figOpts).Verdicts {
		if v.Property != "EverGrowingTree" && !v.Satisfied {
			t.Fatalf("unexpected violation: %s", v)
		}
	}
	if got := Classify(h, figOpts).Level; got != LevelNone {
		t.Fatalf("Stall level = %s, want none", got)
	}
}

// TestTheorem31SCSubsetOfEC is the executable Theorem 3.1: H_SC ⊂ H_EC —
// every SC history is EC (checked on Figure 2 and on a family of growing
// tails) and some EC history is not SC (Figure 3).
func TestTheorem31SCSubsetOfEC(t *testing.T) {
	for _, tail := range []int{8, 16, 32} {
		h := figures.Fig2(tail)
		if !CheckSC(h, figOpts).Satisfied() {
			t.Fatalf("tail=%d: Fig2 not SC", tail)
		}
		if !CheckEC(h, figOpts).Satisfied() {
			t.Fatalf("tail=%d: SC history not EC — contradicts Theorem 3.1", tail)
		}
	}
	// Strictness witness.
	h := figures.Fig3(12)
	if CheckSC(h, figOpts).Satisfied() || !CheckEC(h, figOpts).Satisfied() {
		t.Fatal("Fig3 must witness H_EC \\ H_SC")
	}
}

// TestLevelString covers the Level stringer.
func TestLevelString(t *testing.T) {
	if LevelSC.String() != "SC" || LevelEC.String() != "EC" || LevelNone.String() != "none" {
		t.Fatal("level names")
	}
}

// TestLevelAtLeast pins the order of Theorem 3.1's hierarchy: a level
// satisfies itself and every weaker one, never a stronger one.
func TestLevelAtLeast(t *testing.T) {
	order := []Level{LevelSC, LevelEC, LevelNone} // strongest first
	for i, l := range order {
		for j, want := range order {
			if got := l.AtLeast(want); got != (i <= j) {
				t.Errorf("%s.AtLeast(%s) = %v, want %v", l, want, got, i <= j)
			}
		}
	}
}
