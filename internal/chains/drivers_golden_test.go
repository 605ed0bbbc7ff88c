package chains

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"blockadt/internal/consistency"
	"blockadt/internal/history"
)

// update regenerates the golden files: go test ./internal/chains -update
var update = flag.Bool("update", false, "rewrite the golden files")

// TestDriversGolden byte-gates the drivers no sweep golden covers: the
// fruit and selfish withholding runs at N=6 and the PBFT-committed chain,
// three seeds each. Each run prints every scalar Result field, the
// history's op count, the classified level, the Update Agreement and
// LRC verdicts and the full adversary census.
// Regenerate deliberately with
//
//	go test ./internal/chains -run TestDriversGolden -update
//
// and review the diff.
func TestDriversGolden(t *testing.T) {
	runs := []struct {
		name string
		run  func(Params) Result
		p    Params
	}{
		{"FruitWithholding(0.3)", FruitWithholding(0.3).Run, Params{N: 6, TargetBlocks: 80}},
		{"SelfishWithholding(0.3)", SelfishWithholding(0.3).Run, Params{N: 6, TargetBlocks: 80}},
		{"PBFTChain", PBFTChain{}.Run, Params{N: 4, TargetBlocks: 15}},
	}
	var b strings.Builder
	for _, r := range runs {
		for seed := uint64(1); seed <= 3; seed++ {
			p := r.p
			p.Seed = seed
			res := r.run(p)
			opts := Options(p, res.History)
			level := res.Classify(opts).Level
			ua := consistency.UpdateAgreement(res.History, opts).Satisfied
			lrc := consistency.LRC(res.History, opts).Satisfied
			fmt.Fprintf(&b, "%s seed=%d\n", r.name, seed)
			fmt.Fprintf(&b, "  system=%q refinement=%q oracle=%q selector=%q k=%d\n",
				res.System, res.Refinement, res.OracleName, res.SelectorName, res.K)
			fmt.Fprintf(&b, "  blocks=%d forks=%d ticks=%d delivered=%d dropped=%d bytes=%d heal=%d ops=%d level=%s ua=%v lrc=%v\n",
				res.Blocks, res.Forks, res.Ticks, res.Delivered, res.Dropped, res.Bytes, res.PartitionHeal,
				len(res.History.Ops()), level, ua, lrc)
			if a := res.Adversary; a != nil {
				fmt.Fprintf(&b, "  mined adv=%d honest=%d share adv=%v honest=%v merit=%v orphaned=%d\n",
					a.AdversaryMined, a.HonestMined, a.AdversaryShare, a.HonestShare, a.AdversaryMerit, a.Orphaned)
				fmt.Fprintf(&b, "  mainChainByProc=%s blockShareByProc=%s fruitRewardByProc=%s\n",
					sortedCensus(a.MainChainByProc), sortedCensus(a.BlockShareByProc), sortedCensus(a.FruitRewardByProc))
				fmt.Fprintf(&b, "  advBlockShare=%v advRewardShare=%v finalChain=%d", a.AdversaryBlockShare, a.AdversaryRewardShare, len(a.FinalChain))
				for _, blk := range a.FinalChain {
					fmt.Fprintf(&b, " %s", blk.ID)
				}
				b.WriteString("\n")
			}
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "drivers.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("driver outputs drifted from %s (regenerate with -update and review the diff)\ngot:\n%s", path, got)
	}
}

// sortedCensus renders a per-process census in ascending process order.
func sortedCensus(m map[history.ProcID]int) string {
	procs := make([]history.ProcID, 0, len(m))
	for p := range m {
		procs = append(procs, p)
	}
	slices.Sort(procs)
	parts := make([]string, len(procs))
	for i, p := range procs {
		parts[i] = fmt.Sprintf("p%d:%d", p, m[p])
	}
	return "{" + strings.Join(parts, " ") + "}"
}
