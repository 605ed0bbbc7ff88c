package blockadt

import "blockadt/internal/chains"

// The seven Table 1 systems self-register in the paper's row order — the
// registration order is the default Systems dimension of a Matrix, which
// keeps sweep reports byte-identical with the pre-registry engine.
func init() {
	register := func(sys chains.System, desc, oracleName, selectorName string, meritAware bool) {
		RegisterSystem(SystemSpec{
			Name:        sys.Name(),
			Description: desc,
			Refinement:  sys.Refinement(),
			Expected:    sys.Expected(),
			Oracle:      oracleName,
			Selector:    selectorName,
			MeritAware:  meritAware,
			Run:         sys.Run,
		})
	}
	// The PoW systems drive their prodigal oracles from Params.Merits
	// (hashing power); the committee systems grant deterministically.
	register(chains.Bitcoin{},
		"permissionless PoW, heaviest-chain f, prodigal Θ_P (Section 5.1)",
		"prodigal", "heaviest", true)
	register(chains.Ethereum{},
		"permissionless PoW with GHOST selection, prodigal Θ_P (Section 5.2)",
		"prodigal", "ghost", true)
	register(chains.Algorand{},
		"committee BA⋆ agreement, frugal Θ_F,k=1 w.h.p. (Section 5.3)",
		"frugal", "single", false)
	register(chains.ByzCoin{},
		"PoW-elected committee + PBFT, frugal Θ_F,k=1 (Section 5.4)",
		"frugal", "single", false)
	register(chains.PeerCensus{},
		"PoW identities + BFT consensus, frugal Θ_F,k=1 (Section 5.5)",
		"frugal", "single", false)
	register(chains.RedBelly{},
		"deterministic binary consensus, one chain by construction (Section 5.6)",
		"frugal", "single", false)
	register(chains.Hyperledger{},
		"consortium ordering service, frugal Θ_F,k=1 (Section 5.7)",
		"frugal", "single", false)
}
