package chains

import (
	"testing"

	"blockadt/internal/consistency"
	"blockadt/internal/fairness"
)

// runSelfish executes the withholding plan through the unified executor.
func runSelfish(t *testing.T, p Params, alpha float64) Result {
	t.Helper()
	return execScenario(t, Scenario{
		Adversary: SelfishWithholding(alpha),
		Params:    p,
	})
}

// TestSelfishMiningDegradesChainQuality: a withholding adversary with a
// third of the power orphans honest work, so the honest miners' realized
// main-chain share falls below their merit entitlement — the chain-quality
// loss the fairness analyzer is built to expose.
func TestSelfishMiningDegradesChainQuality(t *testing.T) {
	p := Params{N: 6, TargetBlocks: 120, Seed: 31}
	stats := runSelfish(t, p, 0.34).Adversary

	if stats.AdversaryMined == 0 || stats.HonestMined == 0 {
		t.Fatalf("degenerate run: adv=%d honest=%d", stats.AdversaryMined, stats.HonestMined)
	}
	if stats.Orphaned == 0 {
		t.Fatal("no orphans: the withholding strategy never bit")
	}
	honestEntitled := 1 - stats.AdversaryMerit
	if stats.HonestShare >= honestEntitled {
		t.Fatalf("honest share %.3f ≥ entitlement %.3f — no chain-quality loss", stats.HonestShare, honestEntitled)
	}
	t.Logf("α=%.2f: adversary main-chain share %.3f (mined %d), honest %.3f (mined %d), orphaned %d",
		stats.AdversaryMerit, stats.AdversaryShare, stats.AdversaryMined,
		stats.HonestShare, stats.HonestMined, stats.Orphaned)
}

// TestSelfishMiningProfitability: the adversary's main-chain share exceeds
// its merit — the Eyal–Sirer profitability effect (here amplified by the
// synchronous broadcast winning every race for the adversary, the γ=1
// best case).
func TestSelfishMiningProfitability(t *testing.T) {
	p := Params{N: 6, TargetBlocks: 120, Seed: 31}
	stats := runSelfish(t, p, 0.34).Adversary
	if stats.AdversaryShare <= stats.AdversaryMerit {
		t.Fatalf("adversary share %.3f ≤ merit %.3f — strategy unprofitable in the γ=1 regime",
			stats.AdversaryShare, stats.AdversaryMerit)
	}
}

// TestSelfishMiningFlaggedUnfair: the fairness analyzer (realized vs
// entitled over *mined* blocks that reached the chain) reports a
// significant deviation, while an honest-only control run stays fair.
func TestSelfishMiningFlaggedUnfair(t *testing.T) {
	p := Params{N: 6, TargetBlocks: 120, Seed: 31}
	res := runSelfish(t, p, 0.34)
	stats := res.Adversary

	// Chain quality: main-chain authorship against merit entitlement.
	merits := adversaryMeritVector(p, stats.AdversaryMerit)
	rep := fairness.FromCounts(stats.MainChainByProc, merits)
	// Production fairness is untouched (the tapes are fair), so the gap
	// between the two reports isolates the withholding attack.
	prod := fairness.Analyze(res.History, merits)
	if rep.TVD <= prod.TVD {
		t.Fatalf("chain-quality TVD %.3f ≤ production TVD %.3f — attack invisible", rep.TVD, prod.TVD)
	}
	if rep.Fair(0.1) {
		t.Fatalf("selfish run judged fair: TVD %.3f", rep.TVD)
	}
	t.Logf("fairness TVD: chain quality %.3f vs production %.3f", rep.TVD, prod.TVD)
}

// adversaryMeritVector reconstructs the merit distribution the
// withholding plans build: the adversary at process 0 holds alpha of the
// aggregate attempt rate, the honest miners split the rest equally.
func adversaryMeritVector(p Params, alpha float64) []float64 {
	p = p.withDefaults()
	total := p.TokenProb * float64(p.N)
	merits := make([]float64, p.N)
	merits[0] = total * alpha
	for i := 1; i < p.N; i++ {
		merits[i] = total * (1 - alpha) / float64(p.N-1)
	}
	return merits
}

// TestSelfishMiningStillEventuallyConsistent: withholding hurts fairness,
// not consistency — the run still classifies EC (consistency criteria and
// fairness are orthogonal dimensions, which is why the paper lists
// fairness as separate future work).
func TestSelfishMiningStillEventuallyConsistent(t *testing.T) {
	p := Params{N: 6, TargetBlocks: 80, Seed: 31}
	res := runSelfish(t, p, 0.3)
	opts := Options(p.withDefaults(), res.History)
	ec := consistency.CheckEC(res.History, opts)
	if !ec.Satisfied() {
		t.Fatalf("selfish run lost eventual consistency:\n%s", ec)
	}
}
