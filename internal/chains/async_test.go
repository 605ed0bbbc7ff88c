package chains

import (
	"testing"

	"blockadt/internal/consistency"
	"blockadt/internal/netsim"
)

// stragglingAsyncLinks is the divergent asynchronous channel of the
// conjecture-(iii) regime: common-case delay up to 192 ticks plus a 20%
// straggler tail at 10×. No registered link needs stragglers, so the
// test builds the plan itself instead of widening AsyncLinks.
var stragglingAsyncLinks = LinkPlan{
	Regime:     "async",
	Refinement: AsyncLinks(192).Refinement,
	Build: func(Params) netsim.LinkModel {
		return netsim.Asynchronous{MaxDelay: 192, TailProb: 0.2}
	},
}

// TestOpenIssueEventualPrefixUnderAsynchrony exhibits finite-run witnesses
// for the paper's Section 4.2 open issues: when blocks are generated much
// faster than messages deliver, the Eventual Prefix property fails on the
// recorded histories; when generation is much slower than the delay bound,
// the same protocol satisfies it.
func TestOpenIssueEventualPrefixUnderAsynchrony(t *testing.T) {
	// Fast mining (attempts every tick, high probability) against slow
	// links (common delay up to 192 ticks, stragglers ×10): replicas
	// mine dozens of blocks per delivered update, so their trees diverge
	// persistently — the conjecture-(iii) regime.
	fast := execScenario(t, Scenario{
		System: Bitcoin,
		Links:  stragglingAsyncLinks,
		Params: Params{N: 6, TargetBlocks: 60, Seed: 23, MineInterval: 1, TokenProb: 0.5, ReadEvery: 4},
	})
	fastOpts := Options(Params{N: 6}.withDefaults(), fast.History)
	fastOpts.GraceWindow = 16
	if v := consistency.EventualPrefix(fast.History, fastOpts); v.Satisfied {
		t.Fatalf("fast-mining asynchronous run unexpectedly satisfies Eventual Prefix (forks=%d)", fast.Forks)
	}
	if fast.Forks == 0 {
		t.Fatal("fast regime produced no forks — parameters too tame")
	}

	// Slow mining against moderate asynchronous links: blocks are rare
	// relative to delivery, the network quiesces between blocks, and
	// Eventual Prefix holds.
	slow := execScenario(t, Scenario{
		System: Bitcoin,
		Links:  AsyncLinks(8),
		Params: Params{N: 6, TargetBlocks: 25, Seed: 23, MineInterval: 64, TokenProb: 0.04, ReadEvery: 32},
	})
	slowOpts := Options(Params{N: 6}.withDefaults(), slow.History)
	if v := consistency.EventualPrefix(slow.History, slowOpts); !v.Satisfied {
		t.Fatalf("slow-mining run violates Eventual Prefix: %s", v)
	}
}

// TestAsyncRunStillSatisfiesSafetyCore: even in the divergent regime the
// per-replica safety properties hold — only the convergence property is
// lost, matching the shape of the paper's conjecture.
func TestAsyncRunStillSatisfiesSafetyCore(t *testing.T) {
	res := execScenario(t, Scenario{
		System: Bitcoin,
		Links:  stragglingAsyncLinks,
		Params: Params{N: 6, TargetBlocks: 60, Seed: 23, MineInterval: 1, TokenProb: 0.5, ReadEvery: 4},
	})
	opts := Options(Params{N: 6}.withDefaults(), res.History)
	if v := consistency.BlockValidity(res.History, opts); !v.Satisfied {
		t.Fatalf("block validity lost under asynchrony: %s", v)
	}
	if v := consistency.LocalMonotonicRead(res.History, opts); !v.Satisfied {
		t.Fatalf("local monotonicity lost under asynchrony: %s", v)
	}
}
