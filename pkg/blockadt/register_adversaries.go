package blockadt

import (
	"blockadt/internal/chains"
	"blockadt/internal/fairness"
)

// Adversary names of the scenario matrix's fault dimension.
const (
	// AdvNone runs every process honestly.
	AdvNone = "none"
	// AdvSelfish replaces process 0 with an Eyal–Sirer selfish miner
	// holding merit share Alpha. Only the PoW systems implement it.
	AdvSelfish = "selfish"
)

// The two fault models self-register. "none" is the honest default (nil
// Plan); "selfish" returns the Eyal–Sirer withholding plan. Like every
// adversary plan it runs only over the default network
// (chains.Composes); its own narrowing is to the heaviest-chain rows
// (Bitcoin's rule), the selection the withholding strategy races.
func init() {
	RegisterAdversary(AdversarySpec{
		Name:        AdvNone,
		Description: "every process follows the protocol",
	})
	RegisterAdversary(AdversarySpec{
		Name:        AdvSelfish,
		Description: "Eyal–Sirer block-withholding miner at process 0 with merit share α",
		Supports:    heaviestChain,
		Plan:        chains.SelfishWithholding,
		// Chain quality against this model's entitlement: the adversary
		// at process 0 holds alpha, the honest miners split the
		// remainder equally. The process count comes from the same
		// normalization the withholding plan applies, so the entitlement
		// vector can never drift from the processes that actually ran.
		Entitlement: func(p SimParams, alpha float64) []float64 {
			n := chains.NormalizeSelfishN(p.N)
			merits := make([]float64, n)
			merits[0] = alpha
			for i := 1; i < n; i++ {
				merits[i] = (1 - alpha) / float64(n-1)
			}
			return merits
		},
	})
}

// adversaryOutcome assembles the structured outcome of an adversarial
// execution from the census the plan attached to the result. It is the
// one place AdversaryStats maps onto the façade's AdversaryOutcome,
// shared by the sweep engine and SimulateAdversary.
func adversaryOutcome(spec AdversarySpec, p SimParams, alpha float64, res SimResult) AdversaryOutcome {
	out := AdversaryOutcome{SimResult: res}
	stats := res.Adversary
	if stats == nil {
		return out
	}
	if spec.Entitlement != nil {
		out.FairnessTVD = fairness.FromCounts(stats.MainChainByProc, spec.Entitlement(p, alpha)).TVD
	}
	out.AdversaryMined = stats.AdversaryMined
	out.HonestMined = stats.HonestMined
	out.AdversaryShare = stats.AdversaryShare
	out.HonestShare = stats.HonestShare
	out.AdversaryMerit = stats.AdversaryMerit
	out.Orphaned = stats.Orphaned
	out.MainChainByProc = stats.MainChainByProc
	return out
}
