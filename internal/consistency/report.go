package consistency

import (
	"fmt"
	"strings"

	"blockadt/internal/history"
)

// Report is the outcome of checking a composite criterion.
type Report struct {
	// Criterion names the composite criterion ("SC", "EC", …).
	Criterion string
	// Verdicts holds the per-property outcomes.
	Verdicts []Verdict
}

// Satisfied reports whether every constituent property holds.
func (r Report) Satisfied() bool {
	for _, v := range r.Verdicts {
		if !v.Satisfied {
			return false
		}
	}
	return true
}

// Failed returns the names of the violated properties.
func (r Report) Failed() []string {
	var out []string
	for _, v := range r.Verdicts {
		if !v.Satisfied {
			out = append(out, v.Property)
		}
	}
	return out
}

// String renders the report as one line per property.
func (r Report) String() string {
	var b strings.Builder
	status := "SATISFIED"
	if !r.Satisfied() {
		status = "VIOLATED"
	}
	fmt.Fprintf(&b, "%s: %s\n", r.Criterion, status)
	for _, v := range r.Verdicts {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	return b.String()
}

// CheckSC checks the BT Strong Consistency criterion (Definition 3.2): the
// conjunction of Block validity, Local monotonic read, Strong prefix and
// Ever growing tree.
func CheckSC(h *history.History, opts Options) Report {
	return Report{
		Criterion: "BT Strong Consistency",
		Verdicts: []Verdict{
			BlockValidity(h, opts),
			LocalMonotonicRead(h, opts),
			StrongPrefix(h, opts),
			EverGrowingTree(h, opts),
		},
	}
}

// CheckEC checks the BT Eventual Consistency criterion (Definition 3.4):
// the conjunction of Block validity, Local monotonic read, Ever growing
// tree and Eventual prefix.
func CheckEC(h *history.History, opts Options) Report {
	return Report{
		Criterion: "BT Eventual Consistency",
		Verdicts: []Verdict{
			BlockValidity(h, opts),
			LocalMonotonicRead(h, opts),
			EverGrowingTree(h, opts),
			EventualPrefix(h, opts),
		},
	}
}

// Level classifies a history into the hierarchy of Theorem 3.1
// (H_SC ⊂ H_EC).
type Level int

// Classification levels, strongest first.
const (
	// LevelSC: the history satisfies BT Strong Consistency (hence also
	// Eventual, Theorem 3.1).
	LevelSC Level = iota
	// LevelEC: the history satisfies BT Eventual Consistency but not
	// Strong.
	LevelEC
	// LevelNone: the history satisfies neither criterion.
	LevelNone
)

// String returns "SC", "EC" or "none".
func (l Level) String() string {
	switch l {
	case LevelSC:
		return "SC"
	case LevelEC:
		return "EC"
	default:
		return "none"
	}
}

// AtLeast reports whether l is at least as strong as want: SC satisfies
// every level, EC satisfies EC and none, and none satisfies only none.
func (l Level) AtLeast(want Level) bool { return l <= want }

// Classification is the result of Classify.
type Classification struct {
	Level Level
	SC    Report
	EC    Report
}

// Classify determines the strongest criterion the history satisfies.
// SC and EC share three of their four constituent properties (Definitions
// 3.2 and 3.4), so Classify evaluates each property once and assembles
// both reports from the shared verdicts instead of delegating to CheckSC
// and CheckEC, which would walk the history twice.
func Classify(h *history.History, opts Options) Classification {
	bv := BlockValidity(h, opts)
	lmr := LocalMonotonicRead(h, opts)
	egt := EverGrowingTree(h, opts)
	sc := Report{
		Criterion: "BT Strong Consistency",
		Verdicts:  []Verdict{bv, lmr, StrongPrefix(h, opts), egt},
	}
	ec := Report{
		Criterion: "BT Eventual Consistency",
		Verdicts:  []Verdict{bv, lmr, egt, EventualPrefix(h, opts)},
	}
	c := Classification{SC: sc, EC: ec, Level: LevelNone}
	switch {
	case sc.Satisfied():
		c.Level = LevelSC
	case ec.Satisfied():
		c.Level = LevelEC
	}
	return c
}
