package consistency

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"blockadt/internal/figures"
	"blockadt/internal/history"
)

func TestBlockValidityViolation(t *testing.T) {
	// A read returns a block that was never appended.
	h := figures.NewCustom().
		At(1).AppendOK(0, "b0", "1").
		At(5).Read(0, "b0", "1", "ghost").
		History()
	v := BlockValidity(h, Options{})
	if v.Satisfied {
		t.Fatal("ghost block accepted")
	}
	if v.TotalViolations != 1 || !strings.Contains(v.Violations[0], "ghost") {
		t.Fatalf("violations = %v", v.Violations)
	}
}

func TestBlockValidityReadBeforeAppend(t *testing.T) {
	// The read responds before the block's append invocation: the
	// program-order condition einv(append) ր ersp(read) fails.
	h := figures.NewCustom().
		At(1).Read(0, "b0", "late").
		At(10).AppendOK(1, "b0", "late").
		History()
	if v := BlockValidity(h, Options{}); v.Satisfied {
		t.Fatal("time-travelling read accepted")
	}
}

func TestBlockValidityAcceptsUpdateWitness(t *testing.T) {
	// Replicated histories: an update event (not an append) witnesses
	// insertion.
	h := figures.NewCustom().
		At(1).Record(1, history.Label{Kind: history.KindUpdate, Parent: "b0", Block: "u", Origin: 1}).
		At(5).Read(0, "b0", "u").
		History()
	if v := BlockValidity(h, Options{}); !v.Satisfied {
		t.Fatalf("update-witnessed block rejected: %s", v)
	}
}

func TestBlockValidityGenesisExempt(t *testing.T) {
	h := figures.NewCustom().At(1).Read(0, "b0").History()
	if v := BlockValidity(h, Options{}); !v.Satisfied {
		t.Fatalf("genesis-only read rejected: %s", v)
	}
}

func TestLocalMonotonicReadViolation(t *testing.T) {
	h := figures.NewCustom().
		At(1).AppendOK(0, "b0", "1").
		At(2).AppendOK(0, "1", "2").
		At(3).Read(0, "b0", "1", "2").
		At(4).Read(0, "b0", "1"). // score regressed at the same process
		History()
	if v := LocalMonotonicRead(h, Options{}); v.Satisfied {
		t.Fatal("score regression accepted")
	}
}

func TestLocalMonotonicReadCrossProcessExempt(t *testing.T) {
	// Monotonicity is local: another process may read a shorter chain.
	h := figures.NewCustom().
		At(1).AppendOK(0, "b0", "1").
		At(2).AppendOK(0, "1", "2").
		At(3).Read(0, "b0", "1", "2").
		At(4).Read(1, "b0", "1").
		History()
	if v := LocalMonotonicRead(h, Options{}); !v.Satisfied {
		t.Fatalf("cross-process read flagged: %s", v)
	}
}

func TestLocalMonotonicReadEqualScoresOK(t *testing.T) {
	h := figures.NewCustom().
		At(1).AppendOK(0, "b0", "1").
		At(2).Read(0, "b0", "1").
		At(3).Read(0, "b0", "1").
		History()
	if v := LocalMonotonicRead(h, Options{}); !v.Satisfied {
		t.Fatalf("equal scores flagged: %s", v)
	}
}

func TestStrongPrefixViolation(t *testing.T) {
	h := figures.NewCustom().
		At(1).AppendOK(0, "b0", "a").
		At(2).AppendOK(1, "b0", "b").
		At(3).Read(0, "b0", "a").
		At(4).Read(1, "b0", "b").
		History()
	v := StrongPrefix(h, Options{})
	if v.Satisfied {
		t.Fatal("divergent reads accepted")
	}
}

func TestStrongPrefixEqualLengthIdenticalOK(t *testing.T) {
	h := figures.NewCustom().
		At(1).AppendOK(0, "b0", "a").
		At(3).Read(0, "b0", "a").
		At(4).Read(1, "b0", "a").
		History()
	if v := StrongPrefix(h, Options{}); !v.Satisfied {
		t.Fatalf("identical reads flagged: %s", v)
	}
}

func TestStrongPrefixVacuousOnNoReads(t *testing.T) {
	h := figures.NewCustom().At(1).AppendOK(0, "b0", "a").History()
	if v := StrongPrefix(h, Options{}); !v.Satisfied || v.Checked != 0 {
		t.Fatalf("empty read set: %s", v)
	}
}

func TestEverGrowingTreeViolation(t *testing.T) {
	// Appends keep succeeding (the tree grows) but reads keep returning
	// the stale score-1 chain: the returned scores stall despite the
	// infinite-append regime — an Ever Growing Tree violation.
	b := figures.NewCustom().
		At(1).AppendOK(0, "b0", "1").
		At(2).Read(0, "b0", "1")
	tick := int64(3)
	parent := "1"
	for i := 0; i < 10; i++ {
		next := string(rune('a' + i))
		b.At(tick).AppendOK(0, history.BlockRef(parent), history.BlockRef(next))
		parent = next
		tick++
		b.At(tick).Read(1, "b0", "1")
		tick += 2
	}
	h := b.History()
	v := EverGrowingTree(h, Options{GraceWindow: 3})
	if v.Satisfied {
		t.Fatal("stalled reads accepted despite ongoing growth")
	}
}

func TestEverGrowingTreePlateauExempt(t *testing.T) {
	// Appends cease and reads plateau: the finite-prefix plateau is not a
	// violation (the property quantifies over E(a∗,r∗)).
	b := figures.NewCustom().
		At(1).AppendOK(0, "b0", "1").
		At(2).Read(0, "b0", "1")
	tick := int64(3)
	for i := 0; i < 10; i++ {
		b.At(tick).Read(1, "b0", "1")
		tick += 2
	}
	h := b.History()
	if v := EverGrowingTree(h, Options{GraceWindow: 3}); !v.Satisfied {
		t.Fatalf("plateau after final append flagged: %s", v)
	}
}

func TestEverGrowingTreeGrowthWithinWindowOK(t *testing.T) {
	// Scores repeat briefly but grow before the window closes.
	b := figures.NewCustom().At(1).AppendOK(0, "b0", "1")
	chainBlocks := []string{"b0", "1"}
	tick := int64(2)
	for i := 0; i < 8; i++ {
		b.At(tick).Read(0, chainBlocks...)
		tick += 2
		b.At(tick).Read(1, chainBlocks...)
		tick += 2
		next := string(rune('2' + i))
		b.At(tick).AppendOK(0, history.BlockRef(chainBlocks[len(chainBlocks)-1]), history.BlockRef(next))
		chainBlocks = append(chainBlocks, next)
		tick += 2
	}
	h := b.History()
	if v := EverGrowingTree(h, Options{GraceWindow: 4}); !v.Satisfied {
		t.Fatalf("periodic growth flagged: %s", v)
	}
}

func TestEventualPrefixViolationNeedsPersistence(t *testing.T) {
	// Divergence shorter than the window is forgiven; divergence longer
	// than the window is flagged. Reuse figures.Fig4 tails.
	short := figures.Fig4(2) // short divergence tail
	if v := EventualPrefix(short, Options{GraceWindow: 30}); !v.Satisfied {
		t.Fatalf("short divergence flagged under wide window: %s", v)
	}
	long := figures.Fig4(30)
	if v := EventualPrefix(long, Options{GraceWindow: 8}); v.Satisfied {
		t.Fatal("persistent divergence accepted")
	}
}

func TestEventualPrefixVacuousTail(t *testing.T) {
	// Fewer reads than the window: every read is vacuously satisfied.
	h := figures.NewCustom().
		At(1).AppendOK(0, "b0", "1").
		At(2).Read(0, "b0", "1").
		At(3).Read(1, "b0").
		History()
	if v := EventualPrefix(h, Options{GraceWindow: 10}); !v.Satisfied {
		t.Fatalf("vacuous case flagged: %s", v)
	}
}

func TestKForkCoherenceCounts(t *testing.T) {
	h := figures.NewCustom().
		At(1).AppendOK(0, "b0", "a").
		At(2).AppendOK(1, "b0", "b").
		At(3).AppendOK(2, "b0", "c").
		History()
	if v := KForkCoherence(h, 2, Options{}); v.Satisfied {
		t.Fatal("3 children under k=2 accepted")
	}
	if v := KForkCoherence(h, 3, Options{}); !v.Satisfied {
		t.Fatalf("3 children under k=3 rejected: %s", v)
	}
	if v := KForkCoherence(h, 0, Options{}); !v.Satisfied {
		t.Fatal("unbounded check must always pass")
	}
}

func TestKForkCoherenceIgnoresFailedAppends(t *testing.T) {
	// Failed appends (OK=false) do not count against the bound: the
	// hierarchy considers purged histories.
	b := figures.NewCustom().At(1).AppendOK(0, "b0", "a")
	// Record a failed append manually.
	b.Record(1, history.Label{Kind: history.KindAppend, Parent: "b0", Block: "rejected", OK: false})
	h := b.History()
	if v := KForkCoherence(h, 1, Options{}); !v.Satisfied {
		t.Fatalf("failed append counted: %s", v)
	}
}

func TestCustomScoreOption(t *testing.T) {
	// A constant score function makes every history trivially monotone
	// but breaks Ever Growing Tree.
	constScore := func(history.Chain) int { return 7 }
	h := figures.Fig2(12)
	if v := LocalMonotonicRead(h, Options{Score: constScore}); !v.Satisfied {
		t.Fatalf("constant score must be monotone: %s", v)
	}
	if v := EverGrowingTree(h, Options{Score: constScore, GraceWindow: 4}); v.Satisfied {
		t.Fatal("constant score cannot ever-grow")
	}
}

func TestVerdictAndReportStrings(t *testing.T) {
	h := figures.Fig2(12)
	rep := CheckSC(h, figOpts)
	s := rep.String()
	if !strings.Contains(s, "SATISFIED") || !strings.Contains(s, "StrongPrefix") {
		t.Fatalf("report rendering:\n%s", s)
	}
	bad := figures.Fig4(12)
	rep = CheckEC(bad, figOpts)
	if !strings.Contains(rep.String(), "VIOLATED") {
		t.Fatalf("violated report rendering:\n%s", rep)
	}
	if len(rep.Failed()) == 0 {
		t.Fatal("Failed() empty on violated report")
	}
}

func TestMaxViolationsBound(t *testing.T) {
	// Many violations, small cap: recorded list bounded, total counted.
	b := figures.NewCustom()
	b.At(1).AppendOK(0, "b0", "x")
	tick := int64(2)
	for i := 0; i < 20; i++ {
		b.At(tick).Read(0, "b0", "x")
		tick++
		b.At(tick).Read(1, "b0", string(rune('A'+i)))
		tick++
	}
	h := b.History()
	v := BlockValidity(h, Options{MaxViolations: 3})
	if v.Satisfied {
		t.Fatal("expected violations")
	}
	if len(v.Violations) != 3 {
		t.Fatalf("recorded = %d, want 3", len(v.Violations))
	}
	if v.TotalViolations <= 3 {
		t.Fatalf("total = %d, want > 3", v.TotalViolations)
	}
}

func TestWindowDefaults(t *testing.T) {
	o := Options{}
	if o.window(100) != 25 {
		t.Fatalf("window(100) = %d", o.window(100))
	}
	if o.window(4) != 4 {
		t.Fatalf("window(4) = %d", o.window(4))
	}
	o.GraceWindow = 7
	if o.window(100) != 7 {
		t.Fatal("explicit window ignored")
	}
}

// randomReadHistory records reads of procs processes with random
// interleavings. With wellFormed each process has at most one read
// pending, as a sequential process does; otherwise a process may overlap
// its own reads, so its reads can respond out of invocation order. spread
// scales the process ids (negative and far-apart ids exercise the
// counting pass's range check).
func randomReadHistory(rng *rand.Rand, procs, steps int, wellFormed bool, spread int) *history.History {
	r := history.NewRecorder()
	var pending []history.OpID
	busy := map[history.ProcID]bool{}
	procOf := map[history.OpID]history.ProcID{}
	for i := 0; i < steps; i++ {
		p := history.ProcID((rng.Intn(procs) - procs/2) * spread)
		if rng.Intn(2) == 0 && (!wellFormed || !busy[p]) {
			id := r.Invoke(p, history.Label{Kind: history.KindRead})
			pending = append(pending, id)
			procOf[id], busy[p] = p, true
			continue
		}
		if len(pending) == 0 {
			r.Record(p, history.Label{Kind: history.KindUpdate, Block: "1", Parent: "b0"})
			continue
		}
		k := rng.Intn(len(pending))
		id := pending[k]
		pending = append(pending[:k], pending[k+1:]...)
		r.Respond(id, history.Label{Kind: history.KindRead, Chain: history.Chain{"b0"}})
		busy[procOf[id]] = false
	}
	return r.Finalize()
}

// TestProperty_ReadsByProcessOrderIsTheSort: on random well-formed and
// ill-formed histories, readsByProcessOrder returns exactly the
// permutation a (Proc, InvSeq) sort of the response-ordered reads gives,
// whether it takes the counting pass or falls back to the sort.
func TestProperty_ReadsByProcessOrderIsTheSort(t *testing.T) {
	f := func(seed int64, wellFormed bool, procsRaw, spreadRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		spread := []int{1, 1, 3, 1 << 40}[spreadRaw%4]
		h := randomReadHistory(rng, 1+int(procsRaw%6), 120, wellFormed, spread)
		reads := h.Reads()
		want := make([]int32, len(reads))
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortFunc(want, func(a, b int32) int {
			x, y := reads[a].Op, reads[b].Op
			return cmp.Or(cmp.Compare(x.Proc, y.Proc), cmp.Compare(x.InvSeq, y.InvSeq))
		})
		got := readsByProcessOrder(h)
		if !slices.Equal(got, want) {
			t.Logf("seed %d wellFormed %v: got %v, want %v", seed, wellFormed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
