package consistency

import (
	"testing"

	"blockadt/internal/figures"
	"blockadt/internal/history"
)

// fig13History builds the compliant Figure 13 history: process i performs
// send_i(bg,b), update_i(bg,b) and receive_i(bg,b); processes j and k
// receive and update — all three Update Agreement properties hold.
func fig13History() *history.History {
	const (
		i history.ProcID = 0
		j history.ProcID = 1
		k history.ProcID = 2
	)
	return figures.NewCustom().
		At(1).Record(i, history.Label{Kind: history.KindSend, Parent: "b0", Block: "b", Origin: i}).
		At(2).Record(i, history.Label{Kind: history.KindUpdate, Parent: "b0", Block: "b", Origin: i}).
		At(3).Record(i, history.Label{Kind: history.KindReceive, Parent: "b0", Block: "b", Origin: i}).
		At(4).Record(j, history.Label{Kind: history.KindReceive, Parent: "b0", Block: "b", Origin: i}).
		At(5).Record(j, history.Label{Kind: history.KindUpdate, Parent: "b0", Block: "b", Origin: i}).
		At(6).Record(k, history.Label{Kind: history.KindReceive, Parent: "b0", Block: "b", Origin: i}).
		At(7).Record(k, history.Label{Kind: history.KindUpdate, Parent: "b0", Block: "b", Origin: i}).
		History()
}

// TestFig13UpdateAgreementSatisfied: the Figure 13 history satisfies
// R1, R2 and R3.
func TestFig13UpdateAgreementSatisfied(t *testing.T) {
	h := fig13History()
	if v := UpdateAgreement(h, Options{}); !v.Satisfied {
		t.Fatalf("Figure 13 rejected: %s", v)
	}
	if v := LRC(h, Options{}); !v.Satisfied {
		t.Fatalf("Figure 13 violates LRC: %s", v)
	}
}

func TestUpdateAgreementR1Violation(t *testing.T) {
	// Own-block update without a send.
	h := figures.NewCustom().
		At(1).Record(0, history.Label{Kind: history.KindUpdate, Parent: "b0", Block: "b", Origin: 0}).
		At(2).Record(0, history.Label{Kind: history.KindReceive, Parent: "b0", Block: "b", Origin: 0}).
		At(3).Record(1, history.Label{Kind: history.KindReceive, Parent: "b0", Block: "b", Origin: 0}).
		History()
	v := UpdateAgreement(h, Options{})
	if v.Satisfied {
		t.Fatal("missing send accepted")
	}
	if v.Violations[0][:2] != "R1" {
		t.Fatalf("expected R1 violation, got %v", v.Violations)
	}
}

func TestUpdateAgreementR2Violation(t *testing.T) {
	// Remote-block update without a prior receive.
	h := figures.NewCustom().
		At(1).Record(0, history.Label{Kind: history.KindSend, Parent: "b0", Block: "b", Origin: 0}).
		At(2).Record(0, history.Label{Kind: history.KindUpdate, Parent: "b0", Block: "b", Origin: 0}).
		At(3).Record(0, history.Label{Kind: history.KindReceive, Parent: "b0", Block: "b", Origin: 0}).
		At(4).Record(1, history.Label{Kind: history.KindUpdate, Parent: "b0", Block: "b", Origin: 0}).
		At(5).Record(1, history.Label{Kind: history.KindReceive, Parent: "b0", Block: "b", Origin: 0}).
		History()
	v := UpdateAgreement(h, Options{Procs: []history.ProcID{0, 1}})
	if v.Satisfied {
		t.Fatal("update-before-receive accepted")
	}
	found := false
	for _, s := range v.Violations {
		if s[:2] == "R2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected R2 violation, got %v", v.Violations)
	}
}

func TestUpdateAgreementR3Violation(t *testing.T) {
	// Process 2 never receives the update.
	h := figures.NewCustom().
		At(1).Record(0, history.Label{Kind: history.KindSend, Parent: "b0", Block: "b", Origin: 0}).
		At(2).Record(0, history.Label{Kind: history.KindUpdate, Parent: "b0", Block: "b", Origin: 0}).
		At(3).Record(0, history.Label{Kind: history.KindReceive, Parent: "b0", Block: "b", Origin: 0}).
		At(4).Record(1, history.Label{Kind: history.KindReceive, Parent: "b0", Block: "b", Origin: 0}).
		History()
	v := UpdateAgreement(h, Options{Procs: []history.ProcID{0, 1, 2}})
	if v.Satisfied {
		t.Fatal("missing receive at p2 accepted")
	}
	found := false
	for _, s := range v.Violations {
		if s[:2] == "R3" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected R3 violation, got %v", v.Violations)
	}
}

func TestLRCValidityViolation(t *testing.T) {
	// Sender never receives its own message.
	h := figures.NewCustom().
		At(1).Record(0, history.Label{Kind: history.KindSend, Parent: "b0", Block: "b", Origin: 0}).
		At(2).Record(1, history.Label{Kind: history.KindReceive, Parent: "b0", Block: "b", Origin: 0}).
		History()
	v := LRC(h, Options{Procs: []history.ProcID{0, 1}})
	if v.Satisfied {
		t.Fatal("sender-no-receive accepted")
	}
}

func TestLRCAgreementViolation(t *testing.T) {
	// Received by p0 but never by p1.
	h := figures.NewCustom().
		At(1).Record(0, history.Label{Kind: history.KindSend, Parent: "b0", Block: "b", Origin: 0}).
		At(2).Record(0, history.Label{Kind: history.KindReceive, Parent: "b0", Block: "b", Origin: 0}).
		History()
	v := LRC(h, Options{Procs: []history.ProcID{0, 1}})
	if v.Satisfied {
		t.Fatal("partial delivery accepted")
	}
}

// TestLRCCountsPastRecordedViolations checks the verdict's counts when
// there are more violations than MaxViolations keeps: a message received
// only by p3, outside the universe, still counts as received by some
// process, and the messages kept are the first ones in order.
func TestLRCCountsPastRecordedViolations(t *testing.T) {
	h := figures.NewCustom().
		At(1).Record(0, history.Label{Kind: history.KindSend, Parent: "b0", Block: "a", Origin: 0}).
		At(2).Record(0, history.Label{Kind: history.KindReceive, Parent: "b0", Block: "a", Origin: 0}).
		At(3).Record(3, history.Label{Kind: history.KindReceive, Parent: "b0", Block: "x", Origin: 3}).
		At(4).Record(1, history.Label{Kind: history.KindSend, Parent: "a", Block: "b", Origin: 1}).
		History()
	v := LRC(h, Options{Procs: []history.ProcID{0, 1, 2}, MaxViolations: 2})
	want := []string{
		"Validity: send_1(a,b) never received by sender",
		"Agreement: (b0,a) received by some process but not by p1",
	}
	// Validity: 1 (b by p1); Agreement: a misses p1, p2; x misses p0, p1, p2.
	if v.Satisfied || v.TotalViolations != 6 || v.Checked != 2+2*3 || len(v.Violations) != 2 ||
		v.Violations[0] != want[0] || v.Violations[1] != want[1] {
		t.Fatalf("verdict = %+v, want 6 violations over 8 checks, first %q", v, want)
	}
}

func TestProcUniverseDerivation(t *testing.T) {
	h := fig13History()
	procs := procUniverse(h, Options{})
	if len(procs) != 3 || procs[0] != 0 || procs[2] != 2 {
		t.Fatalf("derived universe = %v", procs)
	}
	explicit := procUniverse(h, Options{Procs: []history.ProcID{5}})
	if len(explicit) != 1 || explicit[0] != 5 {
		t.Fatalf("explicit universe = %v", explicit)
	}
}
