package blockadt_test

import (
	"fmt"

	"blockadt/pkg/blockadt"
)

// Example_registerAdversary is the extension recipe of docs/api.md: a
// new fault model is one registration, and its Plan returns the
// executor's adversary plan for a merit share alpha — a value that
// captures its own parameters. Once registered, the model composes by
// name everywhere: SimulateAdversary, sweep matrices, the run store and
// `btadt list`.
func Example_registerAdversary() {
	// A real extension registers in its package's init(). The lookup
	// guard keeps this example re-runnable under go test -count=2.
	if _, err := blockadt.LookupAdversary("whale"); err != nil {
		bitcoin, _ := blockadt.LookupSystem("Bitcoin")
		blockadt.RegisterAdversary(blockadt.AdversarySpec{
			Name:        "whale",
			Description: "process 0 holds merit share α but follows the protocol",
			// Matrix expansion prunes, and SimulateAdversary rejects,
			// every system this predicate refuses. Like every adversary
			// plan, the whale runs over the default network only.
			Supports: func(system blockadt.SimSystem) bool { return system.Name == "Bitcoin" },
			Plan: func(alpha float64) blockadt.AdversaryPlan {
				return blockadt.AdversaryPlan{Name: "whale", Run: func(p blockadt.SimParams) blockadt.SimResult {
					p = p.WithDefaults()
					// Process 0 gets alpha of the aggregate token rate, the
					// others split the rest evenly.
					total := p.TokenProb * float64(p.N)
					p.Merits = make([]float64, p.N)
					p.Merits[0] = total * alpha
					for i := 1; i < p.N; i++ {
						p.Merits[i] = total * (1 - alpha) / float64(p.N-1)
					}
					return bitcoin.Run(p)
				}}
			},
		})
	}

	if _, err := blockadt.SimulateAdversary("Bitcoin", "whale", blockadt.WithAlpha(0.5), blockadt.WithBlocks(20), blockadt.WithSeed(1)); err != nil {
		fmt.Println(err)
		return
	}

	rep, err := blockadt.Run(blockadt.Matrix{
		Systems:     []string{"Bitcoin", "Hyperledger"},
		Adversaries: []string{blockadt.AdvNone, "whale"},
		RootSeed:    42,
	}, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, r := range rep.Results {
		fmt.Printf("%s/%s α=%.2f expected %s\n", r.Config.System, r.Config.Adversary, r.Config.Alpha, r.Expected)
	}
	// Output:
	// Bitcoin/none α=0.00 expected EC
	// Bitcoin/whale α=0.34 expected EC
	// Hyperledger/none α=0.00 expected SC
}
