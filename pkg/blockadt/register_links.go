package blockadt

import (
	"fmt"

	"blockadt/internal/chains"
)

// Link model names of the scenario matrix's network dimension.
const (
	// LinkSync is the synchronous δ-bounded link model every Table 1
	// simulator uses.
	LinkSync = "sync"
	// LinkAsync is the asynchronous regime of the Section 4.2 open
	// issues (bounded common case with stragglers). PoW systems only.
	LinkAsync = "async"
	// LinkPsync is the weakly synchronous (eventually synchronous)
	// regime: asynchronous before the global stabilization time GST,
	// δ-bounded after, with every pre-GST send delivered by GST+δ (the
	// DLS partial-synchrony bound). PoW systems only.
	LinkPsync = "psync"
	// LinkLossy drops each message independently with a fixed seeded
	// probability and never retransmits — the non-reliable channels of
	// Theorem 4.7, whose runs witness the Eventual Prefix violation the
	// theorem proves unavoidable. PoW systems only.
	LinkLossy = "lossy"
	// LinkPartition bisects the network for a fixed interval, deferring
	// cross-cut deliveries until the cut heals; the sides fork while
	// partitioned and reconverge afterwards. PoW systems only.
	LinkPartition = "partition"
	// LinkJitter stretches a small fraction of deliveries by 10× —
	// heavy-tail stragglers over otherwise synchronous links. PoW
	// systems only.
	LinkJitter = "jitter"
)

// The six scenario link models self-register. "sync" is the default
// (the zero Link: the system's own simulator is used); the rest hold one
// of the executor's link plans, which run on every PoW system and on no
// committee system (chains.Composes — the committee systems assume
// synchronous rounds). Each spec's Params string is the canonical
// encoding of its fixed parameters; it joins scenario keys and run-store
// cache keys, so retuning a model changes scenario identity instead of
// reusing stale caches. No link states a prediction: every run is held
// to its system's Table 1 level unless it breaks the premise of
// Theorems 4.6 and 4.7 (expectedLevel).
func init() {
	RegisterLink(LinkSpec{
		Name:        LinkSync,
		Description: "synchronous δ-bounded delivery — the Table 1 setting (Section 4.2)",
	})
	RegisterLink(LinkSpec{
		Name:        LinkAsync,
		Description: "asynchronous slow-mining regime with bounded common case (Section 4.2 TBC)",
		Params:      "maxDelay=8",
		// Slow-mining asynchronous regime: common-case delay equal to the
		// synchronous bound, no stragglers — the configuration the
		// Section 4.2 conjecture predicts still converges to EC.
		Link: chains.AsyncLinks(8),
	})
	RegisterLink(LinkSpec{
		Name:        LinkPsync,
		Description: "weakly synchronous: async before GST, δ-bounded after, pre-GST sends delivered by GST+δ (Section 4.2)",
		// GST = 8δ: the run outlives stabilization by a wide margin.
		Link: chains.PsyncLinks,
	})
	RegisterLink(LinkSpec{
		Name:        LinkLossy,
		Description: "seeded per-message drops, no retransmission — the Theorem 4.7 lossy channels",
		Params:      "p=0.10",
		Link:        chains.LossyLinks,
	})
	RegisterLink(LinkSpec{
		Name:        LinkPartition,
		Description: "transient bisection [8δ,24δ), cross-cut traffic deferred until heal",
		Params:      "start=8δ,heal=24δ,defer",
		// The [8δ, 24δ) window and the N/2 bisection; the result carries
		// the heal time for the partition_heal_lag metric.
		Link: chains.PartitionLinks,
	})
	RegisterLink(LinkSpec{
		Name:        LinkJitter,
		Description: "heavy-tail stragglers: 5% of deliveries stretched 10× over synchronous links",
		Params:      "tail=0.05,x=10",
		Link:        chains.JitterLinks,
	})
}

// EnsureAsyncLink registers — idempotently — a hidden asynchronous
// link-model variant with the given common-case delay bound, and
// returns its registry name. The built-in "async" model fixes
// maxDelay = 8 (the synchronous δ); experiments probing fork rate
// against the delay bound register wider variants through this helper.
// Like every hidden variant, the name is a pure function of the
// parameter, so re-registration is a no-op and the Params string keys
// scenario identity.
func EnsureAsyncLink(maxDelay int64) string {
	if maxDelay <= 0 {
		maxDelay = 8
	}
	name := fmt.Sprintf("async:maxDelay=%d", maxDelay)
	linkRegistry.ensure(name, LinkSpec{
		Name:        name,
		Description: fmt.Sprintf("asynchronous slow-mining variant: common-case delay bound %d ticks", maxDelay),
		Params:      fmt.Sprintf("maxDelay=%d", maxDelay),
		Link:        chains.AsyncLinks(maxDelay),
		Hidden:      true,
	})
	return name
}

// EnsureLossyPsyncLink registers — idempotently — a hidden link-model
// variant combining per-message drops at the given rate with
// weakly-synchronous delivery stabilizing at gstDeltas·δ, and returns its
// registry name. The variant behaves like any registered link (matrices
// expand it, scenario keys and run-store cache keys carry its Params) but
// is excluded from Registries() enumeration: it exists for hypothesis
// experiments that sweep the Theorem 4.7 (p × GST) boundary, not for the
// `btadt list` surface. The name is a pure function of the parameters, so
// re-registering the same point is a no-op and two experiments sharing a
// grid cell share its cache entries.
func EnsureLossyPsyncLink(rate float64, gstDeltas int) string {
	if gstDeltas <= 0 {
		gstDeltas = 8
	}
	name := fmt.Sprintf("lossy+psync:p=%.2f,gst=%dδ", rate, gstDeltas)
	linkRegistry.ensure(name, LinkSpec{
		Name:        name,
		Description: fmt.Sprintf("lossy weakly-synchronous variant: drop rate %.2f over GST=%dδ links (Theorem 4.7 boundary)", rate, gstDeltas),
		Params:      fmt.Sprintf("p=%.2f,gst=%dδ", rate, gstDeltas),
		Link:        chains.LossyPsyncLinks(rate, int64(gstDeltas)),
		Hidden:      true,
	})
	return name
}
