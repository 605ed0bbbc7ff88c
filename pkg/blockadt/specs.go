package blockadt

import (
	"blockadt/internal/blocktree"
	"blockadt/internal/chains"
	"blockadt/internal/history"
	"blockadt/internal/oracle"
)

// SystemSpec describes one registered blockchain system: its Table 1
// row and the one-line summary `btadt list` prints. A live New() instance
// derives its profile from the row — the prodigal oracle for a PoW row,
// the frugal one otherwise, and the row's selection function — and
// chains.Composes admits a registered PoW row with every link and
// topology plan.
type SystemSpec struct {
	// SimSystem is the row: Name (the registry key), Refinement,
	// Expected, Selector and, for a committee row, its proposer
	// discipline. Copy a built-in row (chains' Bitcoin, …, through
	// LookupSystem) to register a variant under another name.
	SimSystem
	// Description is the one-line summary `btadt list` prints.
	Description string
}

// OracleSpec describes a registered token-oracle family of the Θ
// hierarchy.
type OracleSpec struct {
	Name        string
	Description string
	// New constructs an oracle instance. The façade passes the composed
	// OracleConfig (K, Merits, Seed); the spec may override fields that
	// define the family (e.g. the prodigal spec forces K = Unbounded).
	New func(cfg OracleConfig) *Oracle
}

// SelectorSpec describes a registered selection function f : BT → BC.
type SelectorSpec struct {
	Name        string
	Description string
	New         func() Selector
}

// LinkSpec describes a registered communication model — one value of the
// scenario matrix's link dimension.
type LinkSpec struct {
	Name        string
	Description string
	// Params is the canonical encoding of the model's fixed parameters
	// ("p=0.10" for the lossy rate, "start=64,heal=192" for the
	// partition window, …; empty for parameterless models). It is
	// stamped into every expanded Scenario and therefore into scenario
	// keys and run-store cache keys: changing a link's parameters
	// changes scenario identity instead of silently serving results the
	// new parameters would not produce.
	Params string
	// Link is the executor's link plan, which captures its own
	// parameters (chains.AsyncLinks(8), chains.LossyLinks, …). The zero
	// value marks the default model: the system's own synchronous
	// simulator runs untouched. A non-default plan runs on the generic
	// PoW driver, so matrices prune it for every other system
	// (chains.Composes).
	Link LinkPlan
	// Hidden excludes the model from Registries() enumeration (and so
	// from `btadt list`). Hypothesis experiments register parameterized
	// variants of the built-in models on demand; hiding them keeps the
	// presentation surface stable while lookups, matrices and store keys
	// treat them like any other registration.
	Hidden bool
}

// AdversarySpec describes a registered fault model — one value of the
// scenario matrix's adversary dimension.
type AdversarySpec struct {
	Name        string
	Description string
	// Supports narrows the systems the model runs against, deciding on
	// the system's Table 1 row; nil means every system. Whatever it
	// admits, an adversary plan runs only over the default network
	// (chains.Composes).
	Supports func(system SimSystem) bool
	// Plan returns the executor's adversary plan for merit share alpha
	// (chains.SelfishWithholding). A nil Plan marks the honest default.
	Plan func(alpha float64) AdversaryPlan
	// Entitlement returns the per-process merit entitlement vector this
	// model defines (the chain-quality baseline the fairness TVD is
	// measured against). Only the model knows its merit layout — e.g.
	// the selfish miner normalizes the process count before splitting
	// the honest remainder.
	Entitlement func(p SimParams, alpha float64) []float64
}

// TopologySpec describes a registered dissemination topology — one value
// of the scenario matrix's topology dimension. The default complete
// graph is the zero-Topology entry: every pre-existing scenario runs
// exactly as before, and only non-default topologies join scenario keys.
type TopologySpec struct {
	Name        string
	Description string
	// Params is the canonical encoding of the topology's fixed
	// parameters ("k=3" for gossip degree, …). Like LinkSpec.Params it
	// joins scenario keys and run-store cache keys — but only for
	// non-default topologies, so pre-existing keys are unchanged.
	Params string
	// Supports narrows the systems the topology runs on, deciding on the
	// system's Table 1 row; nil means every system the executor can run
	// it on (chains.Composes: PoW systems, honest runs).
	Supports func(system SimSystem) bool
	// Topology is the executor's topology plan (gossip graph, link
	// decoration, or both). The zero value marks the default complete
	// graph.
	Topology chains.TopologyPlan
	// Hidden excludes the topology from Registries() enumeration, like
	// hidden link variants.
	Hidden bool
}

// MetricSpec describes a registered run-measurement collector — one
// value of the metrics dimension of instrumented sweeps (docs/metrics.md).
type MetricSpec struct {
	// Name is the registry key and the JSON key of the metric's values
	// in sweep results and aggregates.
	Name string
	// Description is the one-line summary `btadt list` prints.
	Description string
	// Compute measures one run. The boolean reports applicability: an
	// inapplicable metric (e.g. adversary share on an honest run) is
	// skipped, not recorded as zero. Compute must be a pure function of
	// the snapshot — the determinism of metrics-enabled sweep JSON
	// depends on it. Compute must not keep MetricRun.History, or anything
	// taken from it, after it returns: the sweep engine releases the
	// history for reuse by the next scenario (History.Release) once every
	// collector has run.
	Compute func(MetricRun) (float64, bool)
}

// AdversaryOutcome is the structured result of an adversarial run.
type AdversaryOutcome struct {
	SimResult
	// FairnessTVD is the chain-quality total variation distance between
	// realized and entitled block shares, as this adversary model
	// defines entitlement (AdversarySpec.Entitlement — only the model
	// knows its merit layout). It is 0 when the plan attaches no census
	// or the spec defines no entitlement.
	FairnessTVD float64
	// AdversaryMined / HonestMined count oracle-validated blocks.
	AdversaryMined, HonestMined int
	// AdversaryShare / HonestShare are realized main-chain proportions;
	// AdversaryMerit is the adversary's entitled share.
	AdversaryShare, HonestShare, AdversaryMerit float64
	// Orphaned counts mined blocks that missed the final main chain.
	Orphaned int
	// MainChainByProc is the main-chain authorship census, the input to
	// chain-quality fairness analysis.
	MainChainByProc map[history.ProcID]int
}

// Selector is the selection function interface f ∈ F : BT → BC.
type Selector = blocktree.Selector

// Oracle is a token-oracle instance (Θ_P or Θ_F,k).
type Oracle = oracle.Oracle

// OracleConfig parameterizes an oracle: fork bound K (Unbounded for Θ_P),
// per-merit token probabilities, and the pseudorandom tape seed.
type OracleConfig = oracle.Config

// Unbounded is the K value of the prodigal oracle Θ_P.
const Unbounded = oracle.Unbounded
