package chains

import (
	"testing"

	"blockadt/internal/consistency"
	"blockadt/internal/fairness"
)

// runFruit executes the FruitChain withholding plan through the unified
// executor.
func runFruit(t *testing.T, p Params, alpha float64) Result {
	t.Helper()
	return execScenario(t, Scenario{
		Adversary: FruitWithholding(alpha),
		Params:    p,
	})
}

// TestFruitChainRestoresRewardFairness is the Section 5.1 FruitChain
// claim made measurable: under the same selfish-mining adversary, block
// authorship is skewed far above the adversary's merit, but the fruit
// reward distribution stays close to it — the rewarding mechanism, not the
// consistency level, is what FruitChain changes.
func TestFruitChainRestoresRewardFairness(t *testing.T) {
	p := Params{N: 6, TargetBlocks: 120, Seed: 31}
	const alpha = 0.34
	stats := runFruit(t, p, alpha).Adversary

	if stats.AdversaryBlockShare <= alpha {
		t.Fatalf("adversary block share %.3f ≤ merit %.3f — attack did not bite", stats.AdversaryBlockShare, alpha)
	}
	blockExcess := stats.AdversaryBlockShare - alpha
	rewardExcess := stats.AdversaryRewardShare - alpha
	if rewardExcess >= blockExcess {
		t.Fatalf("reward skew %.3f not smaller than block skew %.3f", rewardExcess, blockExcess)
	}
	// The reward distribution is within fairness tolerance of the merit
	// entitlement.
	merits := adversaryMeritVector(p, stats.AdversaryMerit)
	rewardRep := fairness.FromCounts(stats.FruitRewardByProc, merits)
	if !rewardRep.Fair(0.12) {
		t.Fatalf("fruit rewards unfair (TVD %.3f):\n%s", rewardRep.TVD, rewardRep)
	}
	blockRep := fairness.FromCounts(stats.BlockShareByProc, merits)
	if blockRep.TVD <= rewardRep.TVD {
		t.Fatalf("block TVD %.3f ≤ reward TVD %.3f", blockRep.TVD, rewardRep.TVD)
	}
	t.Logf("α=%.2f: block share %.3f (TVD %.3f) vs reward share %.3f (TVD %.3f)",
		alpha, stats.AdversaryBlockShare, blockRep.TVD, stats.AdversaryRewardShare, rewardRep.TVD)
}

// TestFruitChainStillEventuallyConsistent: FruitChain maps to the same
// refinement as Bitcoin (R(BT-ADT_EC, Θ_P)) — the reward change does not
// alter the consistency classification.
func TestFruitChainStillEventuallyConsistent(t *testing.T) {
	p := Params{N: 6, TargetBlocks: 80, Seed: 31}
	res := runFruit(t, p, 0.3)
	cls := consistency.Classify(res.History, Options(p.withDefaults(), res.History))
	if cls.Level != consistency.LevelEC {
		t.Fatalf("FruitChain classified %s, want EC\nSC: %sEC: %s", cls.Level, cls.SC, cls.EC)
	}
}

// TestFruitsAreIncludedInHonestRuns: with a negligible adversary the run
// is effectively honest and fruits from every honest miner land on the
// main chain.
func TestFruitsAreIncludedInHonestRuns(t *testing.T) {
	p := Params{N: 5, TargetBlocks: 60, Seed: 7}
	stats := runFruit(t, p, 0.01).Adversary
	totalRewards := 0
	miners := 0
	for _, n := range stats.FruitRewardByProc {
		totalRewards += n
		if n > 0 {
			miners++
		}
	}
	if totalRewards == 0 {
		t.Fatal("no fruits included at all")
	}
	if miners < 4 {
		t.Fatalf("only %d miners earned rewards", miners)
	}
}

// TestFruitPayloadRoundTrip covers the payload codec.
func TestFruitPayloadRoundTrip(t *testing.T) {
	fruits := []Fruit{{ID: "f1", Miner: 2}, {ID: "f2", Miner: 3}}
	enc := encodeFruits(fruits)
	dec := DecodeFruits(enc)
	if len(dec) != 2 || dec[0] != fruits[0] || dec[1] != fruits[1] {
		t.Fatalf("round trip = %+v", dec)
	}
	if DecodeFruits(nil) != nil {
		t.Fatal("nil payload must decode to nil")
	}
	if DecodeFruits([]byte("{bad")) != nil {
		t.Fatal("garbage must decode to nil")
	}
}

// TestFruitUniquenessOnChain: no fruit id appears twice across the final
// chain's payloads (the harvest prunes already-included fruits).
func TestFruitUniquenessOnChain(t *testing.T) {
	p := Params{N: 5, TargetBlocks: 60, Seed: 7}
	stats := runFruit(t, p, 0.2).Adversary
	seen := map[string]bool{}
	total := 0
	for _, blk := range stats.FinalChain {
		for _, f := range DecodeFruits(blk.Payload) {
			if seen[f.ID] {
				t.Fatalf("fruit %s included twice", f.ID)
			}
			seen[f.ID] = true
			total++
		}
	}
	if total < 10 {
		t.Fatalf("rewards = %d, run too small", total)
	}
}

// TestFruitChainDeterministic: seeded reproducibility.
func TestFruitChainDeterministic(t *testing.T) {
	p := Params{N: 4, TargetBlocks: 30, Seed: 5}
	a := runFruit(t, p, 0.25).Adversary
	b := runFruit(t, p, 0.25).Adversary
	if a.AdversaryBlockShare != b.AdversaryBlockShare || a.AdversaryRewardShare != b.AdversaryRewardShare {
		t.Fatal("nondeterministic fruitchain run")
	}
}
