package chains

import (
	"testing"

	"blockadt/internal/consistency"
)

// TestPBFTChainIsStronglyConsistent: committing blocks through the real
// three-phase PBFT (instead of the Θ_F,k=1 oracle abstraction) still yields
// strongly consistent, fork-free histories — the abstraction is sound.
func TestPBFTChainIsStronglyConsistent(t *testing.T) {
	p := Params{N: 4, TargetBlocks: 20, Seed: 9}
	res := PBFTChain{}.Run(p)
	if res.Blocks < p.TargetBlocks {
		t.Fatalf("committed only %d blocks", res.Blocks)
	}
	if res.Forks != 0 {
		t.Fatalf("forks = %d under PBFT commit", res.Forks)
	}
	cls := res.Classify(Options(p.withDefaults(), res.History))
	if cls.Level != consistency.LevelSC {
		t.Fatalf("PBFT chain classified %s, want SC\nSC: %sEC: %s", cls.Level, cls.SC, cls.EC)
	}
}

// TestPBFTChainMatchesOracleAbstraction: the oracle-committed Hyperledger
// run and the PBFT-committed run classify identically — the executable
// justification for modelling "Byzantine commit" as consumeToken on
// Θ_F,k=1.
func TestPBFTChainMatchesOracleAbstraction(t *testing.T) {
	p := Params{N: 4, TargetBlocks: 15, Seed: 10}
	oracleRun := Hyperledger.Run(p)
	pbftRun := PBFTChain{}.Run(p)

	oracleCls := oracleRun.Classify(Options(p.withDefaults(), oracleRun.History))
	pbftCls := pbftRun.Classify(Options(p.withDefaults(), pbftRun.History))
	if oracleCls.Level != pbftCls.Level {
		t.Fatalf("oracle-committed level %s ≠ PBFT-committed level %s", oracleCls.Level, pbftCls.Level)
	}
	if oracleRun.Forks != 0 || pbftRun.Forks != 0 {
		t.Fatalf("forks: oracle %d, pbft %d", oracleRun.Forks, pbftRun.Forks)
	}
	// Both respect k=1 fork coherence.
	for _, res := range []Result{oracleRun, pbftRun} {
		if v := consistency.KForkCoherence(res.History, 1, Options(p.withDefaults(), res.History)); !v.Satisfied {
			t.Fatalf("%s: %s", res.System, v)
		}
	}
}

// TestPBFTChainConsortium: only writers' blocks are committed.
func TestPBFTChainConsortium(t *testing.T) {
	p := Params{N: 7, Writers: 3, TargetBlocks: 12, Seed: 11}
	res := PBFTChain{}.Run(p)
	for _, a := range res.History.SuccessfulAppends() {
		if int(a.Op.Proc) >= 3 {
			t.Fatalf("non-writer p%d appended %s", a.Op.Proc, a.Block)
		}
	}
	if res.Blocks < p.TargetBlocks {
		t.Fatalf("committed only %d blocks", res.Blocks)
	}
}

// TestPBFTChainDeterministic: same seed, same run.
func TestPBFTChainDeterministic(t *testing.T) {
	p := Params{N: 4, TargetBlocks: 10, Seed: 12}
	a := PBFTChain{}.Run(p)
	b := PBFTChain{}.Run(p)
	if a.Blocks != b.Blocks || a.Ticks != b.Ticks || a.Delivered != b.Delivered {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}
