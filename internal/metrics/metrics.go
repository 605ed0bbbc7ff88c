// Package metrics is the measurement layer of the reproduction: named
// collectors that turn one simulated run into numbers (fork rate, chain
// quality, growth rate, finality depth, message cost, rounds to
// agreement), plus the streaming aggregators (Welford mean/variance,
// exact-or-P² quantiles) that fold multi-seed sweeps into summaries in
// O(1) memory.
//
// Collectors are pure functions of a Run snapshot and aggregators are
// pure folds of their input order, so every number the subsystem produces
// is a deterministic function of (matrix, root seed) — the same contract
// the sweep engine makes for its scenario results, extended to the
// statistics derived from them (docs/metrics.md).
package metrics

import "blockadt/internal/history"

// Run is the per-run snapshot collectors measure: the simulator counters
// of one scenario plus the recorded history for collectors that derive
// their value from the reads (finality depth). The façade assembles it
// from a simulation result; collectors must treat it as read-only.
type Run struct {
	// N is the process count; TargetBlocks the requested chain length.
	N, TargetBlocks int
	// Blocks / Forks summarize the best replica's tree.
	Blocks, Forks int
	// Ticks is the virtual time the run consumed.
	Ticks int64
	// Delivered / Dropped / Bytes count network messages and their
	// estimated wire size.
	Delivered, Dropped int
	Bytes              int64
	// FairnessTVD is the realized-vs-entitled total variation distance
	// (chain quality against this run's merit layout).
	FairnessTVD float64
	// Adversarial marks adversary runs; AdversaryShare / AdversaryMerit
	// are the adversary's realized vs entitled main-chain proportions.
	Adversarial                    bool
	AdversaryShare, AdversaryMerit float64
	// PartitionHeal is the virtual time the run's network partition
	// healed at (0: no partition — the heal-lag metric is inapplicable).
	PartitionHeal int64
	// History is the recorded concurrent history.
	History *history.History
}

// Collector computes one named measurement from a run snapshot. The
// boolean reports applicability: an adversary-only metric returns false
// on honest runs and the value is skipped, not recorded as zero.
type Collector func(Run) (float64, bool)

// Built-in collector names, exported so callers can request subsets
// without spelling strings.
const (
	ForkRateName          = "fork_rate"
	ChainQualityName      = "chain_quality"
	GrowthRateName        = "growth_rate"
	FinalityDepthName     = "finality_depth"
	FinalityLatencyName   = "finality_latency"
	MsgsName              = "msgs_delivered"
	MsgBytesName          = "msg_bytes"
	RoundsToAgreementName = "rounds_to_agreement"
	AdversaryShareName    = "adversary_share"
	FairnessTVDName       = "fairness_tvd"
	MsgsDroppedName       = "msgs_dropped"
	PartitionHealLagName  = "partition_heal_lag"
)

// ForkRate is the number of fork points per committed block — 0 for the
// consensus systems (one chain by construction), positive for PoW races.
func ForkRate(r Run) (float64, bool) {
	if r.Blocks == 0 {
		return 0, false
	}
	return float64(r.Forks) / float64(r.Blocks), true
}

// ChainQuality is 1 − FairnessTVD ∈ [0,1]: 1 when every process's
// main-chain share matches its merit entitlement, degrading toward 0 as
// authorship skews (the chain-quality loss selfish mining inflicts).
func ChainQuality(r Run) (float64, bool) {
	return 1 - r.FairnessTVD, true
}

// GrowthRate is committed blocks per virtual tick — the paper's chain
// growth, normalized by the simulator clock.
func GrowthRate(r Run) (float64, bool) {
	if r.Ticks == 0 {
		return 0, false
	}
	return float64(r.Blocks) / float64(r.Ticks), true
}

// FinalityDepth is MaxReorg+1: the smallest depth-d finality gadget that
// would have been safe on this run (1 for the SC systems, deeper under
// PoW forks).
func FinalityDepth(r Run) (float64, bool) {
	if r.History == nil {
		return 0, false
	}
	return float64(MaxReorg(r.History) + 1), true
}

// FinalityLatency is the virtual time for a block to sink to the safe
// depth: FinalityDepth × ticks-per-committed-block.
func FinalityLatency(r Run) (float64, bool) {
	d, ok := FinalityDepth(r)
	if !ok || r.Blocks == 0 {
		return 0, false
	}
	return d * float64(r.Ticks) / float64(r.Blocks), true
}

// Msgs is the delivered message count.
func Msgs(r Run) (float64, bool) { return float64(r.Delivered), true }

// MsgBytes is the estimated wire bytes sent (netsim's Bytes counter).
func MsgBytes(r Run) (float64, bool) { return float64(r.Bytes), true }

// RoundsToAgreement is virtual ticks per committed block — for the
// round-based consensus systems, proportional to rounds per decision.
func RoundsToAgreement(r Run) (float64, bool) {
	if r.Blocks == 0 {
		return 0, false
	}
	return float64(r.Ticks) / float64(r.Blocks), true
}

// AdversaryShare is the adversary's realized main-chain proportion;
// applicable to adversarial runs only.
func AdversaryShare(r Run) (float64, bool) {
	return r.AdversaryShare, r.Adversarial
}

// FairnessTVD is the realized-vs-entitled total variation distance the
// run was analyzed with.
func FairnessTVD(r Run) (float64, bool) { return r.FairnessTVD, true }

// MsgsDropped is the number of messages the link model destroyed (lossy
// drops, drop-mode partition cuts) — the hypothesis counter of the
// Theorem 4.7 necessity experiments.
func MsgsDropped(r Run) (float64, bool) { return float64(r.Dropped), true }

// PartitionHealLag measures reconvergence after a healed partition: the
// virtual time from the heal instant to the first read at which every
// process's latest chain is pairwise prefix-compatible again (one chain a
// prefix of the other — the forks of the partition era resolved). A run
// that never reconverges reports the full post-heal window. Inapplicable
// when the run had no partition, or when it ended before the heal
// instant — a partition that never healed has no heal lag.
func PartitionHealLag(r Run) (float64, bool) {
	if r.PartitionHeal <= 0 || r.History == nil || r.Ticks <= r.PartitionHeal {
		return 0, false
	}
	latest := map[history.ProcID]history.Chain{}
	sawAll := func() bool {
		if len(latest) < 2 {
			return false
		}
		chains := make([]history.Chain, 0, len(latest))
		for _, c := range latest {
			chains = append(chains, c)
		}
		for i := range chains {
			for j := i + 1; j < len(chains); j++ {
				cp := chains[i].CommonPrefix(chains[j])
				if len(cp) != len(chains[i]) && len(cp) != len(chains[j]) {
					return false
				}
			}
		}
		return true
	}
	for _, rd := range r.History.Reads() {
		latest[rd.Op.Proc] = rd.Chain
		if rd.Op.RspTime >= r.PartitionHeal && sawAll() {
			lag := rd.Op.RspTime - r.PartitionHeal
			if lag < 0 {
				lag = 0
			}
			return float64(lag), true
		}
	}
	return float64(r.Ticks - r.PartitionHeal), true
}

// MaxReorg returns the deepest observed rollback: the largest number of
// blocks a process saw leave its selected chain between two consecutive
// reads. The history computes it once, with its analysis index
// (History.MaxReorg), so every collector and the scenario runner share
// one pass.
func MaxReorg(h *history.History) int { return h.MaxReorg() }

// TVD is the total variation distance ½·Σ|observedᵢ−expectedᵢ| between
// two distributions given pointwise (callers align and normalize the
// slices; a missing entry is 0).
func TVD(observed, expected []float64) float64 {
	n := len(observed)
	if len(expected) > n {
		n = len(expected)
	}
	var sum float64
	for i := 0; i < n; i++ {
		var o, e float64
		if i < len(observed) {
			o = observed[i]
		}
		if i < len(expected) {
			e = expected[i]
		}
		d := o - e
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / 2
}

// ChiSquare is Σ (observedᵢ−expectedᵢ)²/expectedᵢ over entries with
// positive expectation, the goodness-of-fit statistic of the fairness
// reports (expected counts, not proportions).
func ChiSquare(observed, expected []float64) float64 {
	n := len(observed)
	if len(expected) > n {
		n = len(expected)
	}
	var sum float64
	for i := 0; i < n; i++ {
		var o, e float64
		if i < len(observed) {
			o = observed[i]
		}
		if i < len(expected) {
			e = expected[i]
		}
		if e <= 0 {
			continue
		}
		d := o - e
		sum += d * d / e
	}
	return sum
}
