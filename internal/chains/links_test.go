package chains

import (
	"testing"

	"blockadt/internal/consistency"
)

// classifyLevel runs the standard checker over a result the way the
// sweep engine does.
func classifyLevel(res Result, n int) consistency.Level {
	return res.Classify(Options(Params{N: n}.withDefaults(), res.History)).Level
}

// TestLossyWitnessesTheorem47 is the executable side of Theorem 4.7
// ("it is impossible to implement Eventual Prefix if even only one
// message sent by a correct process is dropped"): under rate-based loss
// with no retransmission, every run drops messages from correct
// processes and its recorded history violates Eventual Prefix — for both
// PoW systems, across seeds. The dropped updates also break the two
// communication guarantees Theorems 4.6 and 4.7 name as necessary:
// Update Agreement and Light Reliable Communication.
func TestLossyWitnessesTheorem47(t *testing.T) {
	for _, sys := range []System{Bitcoin{}, Ethereum{}} {
		for _, seed := range []uint64{1, 42, 12345} {
			res := execScenario(t, Scenario{
				System: sys,
				Links:  LossyLinks,
				Params: ScenarioParams{Params: Params{N: 8, TargetBlocks: 30, Seed: seed}},
			})
			if res.Dropped == 0 {
				t.Fatalf("%s seed=%d: lossy run dropped nothing — no Theorem 4.7 hypothesis", sys.Name(), seed)
			}
			opts := Options(Params{N: 8}.withDefaults(), res.History)
			v := consistency.EventualPrefix(res.History, opts)
			if v.Satisfied {
				t.Fatalf("%s seed=%d: lossy run satisfies Eventual Prefix despite %d drops", sys.Name(), seed, res.Dropped)
			}
			if len(v.Violations) == 0 {
				t.Fatalf("%s seed=%d: Eventual Prefix violated but no witness recorded", sys.Name(), seed)
			}
			if consistency.UpdateAgreement(res.History, opts).Satisfied {
				t.Fatalf("%s seed=%d: lossy run satisfies Update Agreement despite %d drops", sys.Name(), seed, res.Dropped)
			}
			if consistency.LRC(res.History, opts).Satisfied {
				t.Fatalf("%s seed=%d: lossy run satisfies LRC despite %d drops", sys.Name(), seed, res.Dropped)
			}
			if lvl := classifyLevel(res, 8); lvl != consistency.LevelNone {
				t.Fatalf("%s seed=%d: lossy run classified %s, want none", sys.Name(), seed, lvl)
			}
		}
	}
}

// TestPartitionHealsBackToEC: the deferred-delivery partition forks the
// tree while the cut is up, then reconverges — the run classifies EC and
// carries the heal time for the partition_heal_lag metric.
func TestPartitionHealsBackToEC(t *testing.T) {
	for _, sys := range []System{Bitcoin{}, Ethereum{}} {
		for _, seed := range []uint64{1, 42, 12345} {
			res := execScenario(t, Scenario{
				System: sys,
				Links:  PartitionLinks,
				Params: ScenarioParams{Params: Params{N: 8, TargetBlocks: 30, Seed: seed}},
			})
			if res.PartitionHeal == 0 {
				t.Fatalf("%s seed=%d: partition run lost its heal time", sys.Name(), seed)
			}
			if lvl := classifyLevel(res, 8); lvl != consistency.LevelEC {
				t.Fatalf("%s seed=%d: healed partition classified %s, want EC", sys.Name(), seed, lvl)
			}
		}
	}
}

// TestJitterKeepsEC: heavy-tail stragglers alone never break eventual
// consistency — every message still arrives.
func TestJitterKeepsEC(t *testing.T) {
	for _, sys := range []System{Bitcoin{}, Ethereum{}} {
		res := execScenario(t, Scenario{
			System: sys,
			Links:  JitterLinks,
			Params: ScenarioParams{Params: Params{N: 8, TargetBlocks: 30, Seed: 42}},
		})
		if res.Dropped != 0 {
			t.Fatalf("%s: jitter dropped %d messages", sys.Name(), res.Dropped)
		}
		if lvl := classifyLevel(res, 8); lvl != consistency.LevelEC {
			t.Fatalf("%s: jitter run classified %s, want EC", sys.Name(), lvl)
		}
	}
}

// TestPoWLinkPlansCoverAllPoWSystems: the generic driver extends the
// async and psync regimes beyond Bitcoin — Ethereum's GHOST selection
// converges under the DLS-bounded weak synchrony too.
func TestPoWLinkPlansCoverAllPoWSystems(t *testing.T) {
	if !SupportsPoWLinks("Bitcoin") || !SupportsPoWLinks("Ethereum") {
		t.Fatal("PoW link support must cover Bitcoin and Ethereum")
	}
	if SupportsPoWLinks("Hyperledger") || SupportsPoWLinks("RedBelly") {
		t.Fatal("committee systems must not claim PoW link runners")
	}
	p := Params{N: 8, TargetBlocks: 30, Seed: 42}
	async := execScenario(t, Scenario{
		System: Ethereum{},
		Links:  AsyncLinks,
		Params: ScenarioParams{Params: p, MaxDelay: 8},
	})
	if lvl := classifyLevel(async, 8); lvl != consistency.LevelEC {
		t.Fatalf("Ethereum/async classified %s, want EC", lvl)
	}
	psync := execScenario(t, Scenario{
		System: Ethereum{},
		Links:  PsyncLinks,
		Params: ScenarioParams{Params: p},
	})
	if lvl := classifyLevel(psync, 8); lvl != consistency.LevelEC {
		t.Fatalf("Ethereum/psync classified %s, want EC", lvl)
	}
}

// TestNormalizeSelfishN pins the shared clamp both the withholding plan
// and the façade's merit-vector reconstruction use.
func TestNormalizeSelfishN(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 8}, {1, 2}, {2, 2}, {5, 5}} {
		if got := NormalizeSelfishN(tc.in); got != tc.want {
			t.Errorf("NormalizeSelfishN(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	// The degenerate requests really run with the normalized counts: no
	// main-chain author can sit outside [0, NormalizeSelfishN(n)).
	for _, n := range []int{0, 1} {
		res := execScenario(t, Scenario{
			Adversary: SelfishWithholding,
			Params:    ScenarioParams{Params: Params{N: n, TargetBlocks: 20, Seed: 42}, Alpha: 0.34},
		})
		stats := res.Adversary
		limit := NormalizeSelfishN(n)
		for proc := range stats.MainChainByProc {
			if int(proc) >= limit {
				t.Fatalf("N=%d run credits process %d, outside the normalized count %d", n, proc, limit)
			}
		}
		if stats.AdversaryMined == 0 && stats.HonestMined == 0 {
			t.Fatalf("N=%d run mined nothing", n)
		}
	}
}
