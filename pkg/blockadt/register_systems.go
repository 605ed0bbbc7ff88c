package blockadt

import "blockadt/internal/chains"

// The seven Table 1 systems self-register in the paper's row order — the
// registration order is the default Systems dimension of a Matrix, which
// keeps sweep reports byte-identical with the pre-registry engine.
func init() {
	for _, s := range []SystemSpec{
		{chains.Bitcoin, "permissionless PoW, heaviest-chain f, prodigal Θ_P (Section 5.1)"},
		{chains.Ethereum, "permissionless PoW with GHOST selection, prodigal Θ_P (Section 5.2)"},
		{chains.Algorand, "committee BA⋆ agreement, frugal Θ_F,k=1 w.h.p. (Section 5.3)"},
		{chains.ByzCoin, "PoW-elected committee + PBFT, frugal Θ_F,k=1 (Section 5.4)"},
		{chains.PeerCensus, "PoW identities + BFT consensus, frugal Θ_F,k=1 (Section 5.5)"},
		{chains.RedBelly, "deterministic binary consensus, one chain by construction (Section 5.6)"},
		{chains.Hyperledger, "consortium ordering service, frugal Θ_F,k=1 (Section 5.7)"},
	} {
		RegisterSystem(s)
	}
}
