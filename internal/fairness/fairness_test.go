package fairness

import (
	"math"
	"testing"

	"blockadt/internal/chains"
	"blockadt/internal/figures"
	"blockadt/internal/history"
)

func TestAnalyzeSyntheticUniform(t *testing.T) {
	// 2 processes, 2 blocks each, equal merits → perfectly fair.
	b := figures.NewCustom()
	b.At(1).AppendOK(0, "b0", "a")
	b.At(2).AppendOK(1, "a", "b")
	b.At(3).AppendOK(0, "b", "c")
	b.At(4).AppendOK(1, "c", "d")
	rep := Analyze(b.History(), []float64{1, 1})
	if rep.Total != 4 {
		t.Fatalf("total = %d", rep.Total)
	}
	if rep.TVD != 0 {
		t.Fatalf("TVD = %v, want 0", rep.TVD)
	}
	if !rep.Fair(0.01) {
		t.Fatal("perfectly balanced run judged unfair")
	}
}

func TestAnalyzeSyntheticSkewed(t *testing.T) {
	// One process proposes everything but merits are equal: TVD = 0.5.
	b := figures.NewCustom()
	b.At(1).AppendOK(0, "b0", "a")
	b.At(2).AppendOK(0, "a", "b")
	rep := Analyze(b.History(), []float64{1, 1})
	if math.Abs(rep.TVD-0.5) > 1e-9 {
		t.Fatalf("TVD = %v, want 0.5", rep.TVD)
	}
	if rep.Fair(0.1) {
		t.Fatal("monopolized run judged fair")
	}
	if rep.ChiSquare <= 0 {
		t.Fatalf("χ² = %v", rep.ChiSquare)
	}
}

func TestAnalyzeIgnoresFailedAndDuplicateAppends(t *testing.T) {
	b := figures.NewCustom()
	b.At(1).AppendOK(0, "b0", "a")
	b.Record(1, history.Label{Kind: history.KindAppend, Block: "rej", OK: false})
	rep := Analyze(b.History(), []float64{1, 1})
	if rep.Total != 1 {
		t.Fatalf("total = %d, want 1 (failed append excluded)", rep.Total)
	}
}

func TestAnalyzeEmptyHistory(t *testing.T) {
	rep := Analyze(figures.NewCustom().History(), []float64{1, 1})
	if rep.Total != 0 {
		t.Fatal("phantom blocks")
	}
	// With no blocks, realized is 0 everywhere; TVD = ½·Σ entitled = ½.
	if math.Abs(rep.TVD-0.5) > 1e-9 {
		t.Fatalf("TVD = %v", rep.TVD)
	}
}

// TestBitcoinChainQualityUniform: with equal hashing power, each of the n
// miners should win about 1/n of the blocks — the α-fairness the merit
// tapes provide by construction.
func TestBitcoinChainQualityUniform(t *testing.T) {
	p := chains.Params{N: 4, TargetBlocks: 150, Seed: 11}
	res := chains.Bitcoin.Run(p)
	merits := []float64{1, 1, 1, 1}
	rep := Analyze(res.History, merits)
	if rep.Total < 100 {
		t.Fatalf("too few blocks: %d", rep.Total)
	}
	if !rep.Fair(0.15) {
		t.Fatalf("uniform-merit run unfair:\n%s", rep)
	}
}

// TestBitcoinChainQualitySkewed: a miner with half the total hashing power
// should win about half the blocks.
func TestBitcoinChainQualitySkewed(t *testing.T) {
	// Process 0 has 4× everyone else's per-attempt probability.
	merits := []float64{0.16, 0.04, 0.04, 0.04, 0.04}
	p := chains.Params{N: 5, TargetBlocks: 150, Seed: 13, Merits: merits}
	res := chains.Bitcoin.Run(p)
	rep := Analyze(res.History, merits)
	if rep.Total < 100 {
		t.Fatalf("too few blocks: %d", rep.Total)
	}
	var p0 Share
	for _, s := range rep.Shares {
		if s.Proc == 0 {
			p0 = s
		}
	}
	if p0.Entitled != 0.5 {
		t.Fatalf("entitlement = %v, want 0.5", p0.Entitled)
	}
	if math.Abs(p0.Realized-0.5) > 0.12 {
		t.Fatalf("p0 realized %.2f, entitled 0.50:\n%s", p0.Realized, rep)
	}
	if !rep.Fair(0.15) {
		t.Fatalf("skewed run deviates from entitlement:\n%s", rep)
	}
}

func TestReportString(t *testing.T) {
	b := figures.NewCustom()
	b.At(1).AppendOK(0, "b0", "a")
	rep := Analyze(b.History(), []float64{1})
	s := rep.String()
	if len(s) == 0 || rep.Shares[0].Blocks != 1 {
		t.Fatalf("render: %s", s)
	}
}
