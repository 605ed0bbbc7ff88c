package chains

import (
	"strings"
	"testing"

	"blockadt/internal/consistency"
)

var table1Params = Params{N: 8, TargetBlocks: 30, Seed: 42}

// TestTable1Classification regenerates Table 1: each simulated system's
// recorded history classifies at the paper's consistency level.
func TestTable1Classification(t *testing.T) {
	for _, seed := range claimSeeds(table1Params.Seed) {
		p := table1Params
		p.Seed = seed
		rows := Classify(p)
		if len(rows) != 7 {
			t.Fatalf("seed=%d: rows = %d, want 7", seed, len(rows))
		}
		for _, r := range rows {
			if !r.Match {
				t.Errorf("seed=%d: %s: measured %s, paper says %s\nSC: %sEC: %s",
					seed, r.System, r.Measured, r.Expected, r.SC, r.EC)
			}
		}
		if seed == table1Params.Seed {
			t.Logf("\n%s", FormatTable(rows))
		}
	}
}

// TestPoWSystemsViolateStrongPrefixSpecifically: Bitcoin and Ethereum are
// EC, and the SC property that fails is Strong Prefix — the paper's
// rationale for the weaker criterion.
func TestPoWSystemsViolateStrongPrefixSpecifically(t *testing.T) {
	for _, sys := range []System{Bitcoin{}, Ethereum{}} {
		res := sys.Run(table1Params)
		cls := res.Classify(Options(table1Params.withDefaults(), res.History))
		if cls.Level != consistency.LevelEC {
			t.Fatalf("%s level = %s", sys.Name(), cls.Level)
		}
		failed := cls.SC.Failed()
		hasSP := false
		for _, p := range failed {
			if p == "StrongPrefix" {
				hasSP = true
			}
		}
		if !hasSP {
			t.Fatalf("%s: SC failures = %v, want StrongPrefix among them", sys.Name(), failed)
		}
		if res.Forks == 0 {
			t.Fatalf("%s: no forks realized — the run does not exercise divergence", sys.Name())
		}
	}
}

// TestConsensusSystemsNeverFork: every k=1 system commits a single chain.
func TestConsensusSystemsNeverFork(t *testing.T) {
	for _, sys := range []System{Algorand{}, ByzCoin{}, PeerCensus{}, RedBelly{}, Hyperledger{}} {
		res := sys.Run(table1Params)
		if res.Forks != 0 {
			t.Errorf("%s forked %d times under Θ_F,k=1", sys.Name(), res.Forks)
		}
		if res.Blocks < table1Params.TargetBlocks {
			t.Errorf("%s committed only %d blocks", sys.Name(), res.Blocks)
		}
		if res.K != 1 {
			t.Errorf("%s oracle K = %d", sys.Name(), res.K)
		}
	}
}

// TestKForkCoherenceAcrossSystems: every simulated history respects its
// oracle's fork bound (Theorem 3.2 end-to-end).
func TestKForkCoherenceAcrossSystems(t *testing.T) {
	for _, sys := range All() {
		res := sys.Run(table1Params)
		k := res.K
		v := consistency.KForkCoherence(res.History, k, Options(table1Params.withDefaults(), res.History))
		if !v.Satisfied {
			t.Errorf("%s: %s", sys.Name(), v)
		}
	}
}

// TestUpdateAgreementHoldsOnAllSystems: every simulator uses the LRC
// broadcast, so the recorded histories satisfy Update Agreement — the
// necessary condition of Theorem 4.6 honoured by construction.
func TestUpdateAgreementHoldsOnAllSystems(t *testing.T) {
	for _, seed := range claimSeeds(7) {
		small := Params{N: 4, TargetBlocks: 10, Seed: seed}
		for _, sys := range All() {
			res := sys.Run(small)
			opts := Options(small.withDefaults(), res.History)
			if v := consistency.UpdateAgreement(res.History, opts); !v.Satisfied {
				t.Errorf("seed=%d: %s: %s", seed, sys.Name(), v)
			}
			if v := consistency.LRC(res.History, opts); !v.Satisfied {
				t.Errorf("seed=%d: %s LRC: %s", seed, sys.Name(), v)
			}
		}
	}
}

// TestDeterministicRuns: the same seed reproduces the same result exactly.
func TestDeterministicRuns(t *testing.T) {
	a := Bitcoin{}.Run(table1Params)
	b := Bitcoin{}.Run(table1Params)
	if a.Blocks != b.Blocks || a.Forks != b.Forks || a.Ticks != b.Ticks || a.Delivered != b.Delivered {
		t.Fatalf("nondeterministic runs: %+v vs %+v", a, b)
	}
	ra := a.History.Reads()
	rb := b.History.Reads()
	if len(ra) != len(rb) {
		t.Fatalf("read counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Chain.String() != rb[i].Chain.String() {
			t.Fatalf("read %d differs", i)
		}
	}
}

// TestSeedChangesRun: a different seed yields a different execution (the
// simulator actually uses its randomness).
func TestSeedChangesRun(t *testing.T) {
	a := Bitcoin{}.Run(Params{N: 8, TargetBlocks: 20, Seed: 1})
	b := Bitcoin{}.Run(Params{N: 8, TargetBlocks: 20, Seed: 2})
	if a.Ticks == b.Ticks && a.Delivered == b.Delivered && a.Forks == b.Forks {
		t.Fatal("two seeds produced identical executions — suspicious")
	}
}

func TestByName(t *testing.T) {
	for _, want := range []string{"Bitcoin", "Ethereum", "Algorand", "ByzCoin", "PeerCensus", "RedBelly", "Hyperledger"} {
		sys, err := ByName(want)
		if err != nil || sys.Name() != want {
			t.Fatalf("ByName(%s): %v", want, err)
		}
	}
	if _, err := ByName("Dogecoin"); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestFormatTable(t *testing.T) {
	rows := []Row{{System: "X", PaperRefinement: "R", Expected: consistency.LevelSC, Measured: consistency.LevelSC, Match: true}}
	out := FormatTable(rows)
	if !strings.Contains(out, "X") || !strings.Contains(out, "yes") {
		t.Fatalf("table:\n%s", out)
	}
}

func TestWritersParameter(t *testing.T) {
	// A consortium with 2 writers: all blocks must be proposed by procs
	// 0 or 1.
	res := RedBelly{}.Run(Params{N: 6, Writers: 2, TargetBlocks: 12, Seed: 3})
	tree := treeOfBest(t, res)
	for _, a := range res.History.SuccessfulAppends() {
		if a.Op.Proc > 1 {
			t.Fatalf("non-writer %d appended %s", a.Op.Proc, a.Block)
		}
	}
	_ = tree
}

// treeOfBest re-derives a tree from the history's successful appends; it
// sanity-checks that every committed block is attributable.
func treeOfBest(t *testing.T, res Result) map[string]bool {
	t.Helper()
	blocks := map[string]bool{}
	for _, a := range res.History.SuccessfulAppends() {
		blocks[string(a.Block)] = true
	}
	if len(blocks) == 0 {
		t.Fatal("no successful appends recorded")
	}
	return blocks
}

// TestHyperledgerRoundRobin: with the leader rotating over 3 writers,
// successive blocks come from successive leaders.
func TestHyperledgerRoundRobin(t *testing.T) {
	res := Hyperledger{}.Run(Params{N: 6, Writers: 3, TargetBlocks: 9, Seed: 5})
	appends := res.History.SuccessfulAppends()
	if len(appends) < 6 {
		t.Fatalf("appends = %d", len(appends))
	}
	for i := 1; i < len(appends); i++ {
		want := (int(appends[i-1].Op.Proc) + 1) % 3
		if int(appends[i].Op.Proc) != want {
			t.Fatalf("append %d by p%d, want p%d (round-robin)", i, appends[i].Op.Proc, want)
		}
	}
}
