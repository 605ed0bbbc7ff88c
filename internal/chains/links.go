package chains

// This file keeps the shared constants of the network-adversity regimes:
// the PoW systems over rate-lossy, partitioned and jitter-prone channels,
// whose link plans (LossyLinks, PartitionLinks, JitterLinks, …) live in
// execute.go. Together with the async/psync plans they make the channel
// model — the deciding variable of Section 4.2 — a first-class scenario
// dimension. The lossy regime is the executable side of the necessity
// results (Theorem 4.7: Eventual Prefix is unimplementable once even one
// message sent by a correct process is dropped); the partition regime
// exercises the related-work remark that partition-prone systems sustain
// nothing stronger than monotonic-prefix consistency while the cut is up;
// the jitter regime shows rare heavy-tail stragglers alone do not break
// convergence.

// DefaultLossRate is the drop probability of the registered "lossy"
// scenario link: high enough that every realistic run loses several
// block updates (the Theorem 4.7 hypothesis), low enough that the best
// replica still reaches its target chain length.
const DefaultLossRate = 0.10

// NormalizeSelfishN is the one process-count normalization of the
// selfish-mining experiment, shared by the SelfishWithholding plan and
// the façade's merit-vector reconstruction so the two can never drift
// apart: the Params default (0 → 8) plus the adversarial minimum of one
// honest miner (n < 2 → 2).
func NormalizeSelfishN(n int) int {
	n = Params{N: n}.withDefaults().N
	if n < 2 {
		n = 2
	}
	return n
}
