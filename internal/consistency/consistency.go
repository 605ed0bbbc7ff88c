// Package consistency implements the BlockTree consistency criteria of
// Sections 3.1.2 and 4.3 of "Blockchain Abstract Data Type" (Anceaume et
// al.) as executable checkers over recorded concurrent histories:
//
//   - Block Validity, Local Monotonic Read, Strong Prefix and Ever Growing
//     Tree — together the BT Strong Consistency criterion SC
//     (Definition 3.2);
//   - Eventual Prefix — with the first three, the BT Eventual Consistency
//     criterion EC (Definition 3.4);
//   - k-Fork Coherence (Definition 3.9);
//   - Update Agreement R1–R3 (Definition 4.3) and the Light Reliable
//     Communication properties (Definition 4.4).
//
// # Finitization
//
// Ever Growing Tree and Eventual Prefix quantify over infinite histories
// ("…the set of reads that do not … is finite"). A recorded history is a
// finite prefix, so these checkers take a grace window W (Options.
// GraceWindow, default max(4, N/4) for N reads): a read r may be followed
// by at most W-1 reads violating the score/prefix condition before the
// condition must hold for every later read. Formally, with reads indexed by
// response order,
//
//	Ever Growing Tree:  ∀i, ∀j ≥ i+W with ersp(rᵢ) ր einv(rⱼ):
//	                    score(rⱼ) > score(rᵢ);
//	Eventual Prefix:    ∀i, ∀j,k ≥ i+W, j≠k: mcps(rⱼ, rₖ) ≥ score(rᵢ).
//
// A history that satisfies the paper's property for some finite
// convergence bound satisfies the finitized property for W at least that
// bound; a violation of the finitized property exhibits a divergence
// persisting longer than W reads, the executable counterpart of an
// infinite violating set.
package consistency

import (
	"fmt"

	"blockadt/internal/blocktree"
	"blockadt/internal/history"
)

// Options configures the checkers.
type Options struct {
	// Score is the chain score function (monotonic, deterministic);
	// nil defaults to chain length, the paper's running example.
	Score blocktree.Score
	// GraceWindow is the finitization window W in number of reads; 0
	// selects max(4, N/4).
	GraceWindow int
	// Procs is the process universe for the communication properties
	// (R3, LRC Agreement); nil derives it from the processes appearing
	// in the history. Byzantine processes should be excluded by the
	// caller, since the properties quantify over correct processes only.
	Procs []history.ProcID
	// MaxViolations bounds the recorded counterexamples per property;
	// 0 selects 8.
	MaxViolations int
}

func (o Options) score() blocktree.Score {
	if o.Score != nil {
		return o.Score
	}
	return blocktree.LengthScore
}

func (o Options) window(nReads int) int {
	if o.GraceWindow > 0 {
		return o.GraceWindow
	}
	w := nReads / 4
	if w < 4 {
		w = 4
	}
	return w
}

func (o Options) maxViolations() int {
	if o.MaxViolations > 0 {
		return o.MaxViolations
	}
	return 8
}

// Verdict is the outcome of checking one property on one history.
type Verdict struct {
	// Property names the checked property.
	Property string
	// Satisfied reports whether the property holds on the history.
	Satisfied bool
	// Checked counts the constraint instances examined.
	Checked int
	// Violations holds up to Options.MaxViolations human-readable
	// counterexamples.
	Violations []string
	// TotalViolations counts all violations, including unrecorded ones.
	TotalViolations int
}

// String renders the verdict as "property: OK" or a violation summary.
func (v Verdict) String() string {
	if v.Satisfied {
		return fmt.Sprintf("%s: OK (%d constraints)", v.Property, v.Checked)
	}
	return fmt.Sprintf("%s: VIOLATED (%d/%d constraints), e.g. %v", v.Property, v.TotalViolations, v.Checked, v.Violations)
}

type violationSink struct {
	max   int
	total int
	out   []string
}

func (s *violationSink) addf(format string, args ...any) {
	s.total++
	if s.recording() {
		s.out = append(s.out, fmt.Sprintf(format, args...))
	}
}

// recording reports whether the next violation's message will be kept,
// so a checker can skip building a counterexample that would be dropped.
func (s *violationSink) recording() bool { return len(s.out) < s.max }

func (s *violationSink) verdict(property string, checked int) Verdict {
	return Verdict{
		Property:        property,
		Satisfied:       s.total == 0,
		Checked:         checked,
		Violations:      s.out,
		TotalViolations: s.total,
	}
}
