// Package chains maps the existing blockchain systems of Section 5 of
// "Blockchain Abstract Data Type" (Anceaume et al.) onto the framework:
// for each system of Table 1 it provides a protocol simulator, faithful at
// the ADT level, whose recorded concurrent history the consistency checker
// classifies — regenerating the table's Refinement column.
//
// The simulators are deliberately abstract: what Table 1's classification
// depends on is (a) which token oracle the validation mechanism realizes
// (prodigal Θ_P vs frugal Θ_F,k=1), (b) the selection function f, and
// (c) the communication assumptions (at least a light reliable
// communication). Each simulator reproduces exactly those three
// ingredients as the paper describes them, and abstracts the rest
// (transaction content, signatures, view changes).
package chains

import (
	"fmt"

	"blockadt/internal/blocktree"
	"blockadt/internal/consistency"
	"blockadt/internal/history"
	"blockadt/internal/netsim"
	"blockadt/internal/oracle"
)

// Params configures a simulated run.
type Params struct {
	// N is the number of processes (|V|).
	N int
	// Writers is the number of processes allowed to append (|M| ≤ N);
	// 0 means everyone (permissionless).
	Writers int
	// TargetBlocks ends the run once this many blocks are committed at
	// the fastest replica.
	TargetBlocks int
	// Seed drives all pseudorandomness.
	Seed uint64
	// Delta is the synchronous-link delivery bound δ.
	Delta int64
	// MineInterval is the period between proof-of-work attempts (PoW
	// systems) or between rounds (committee systems).
	MineInterval int64
	// TokenProb is the per-attempt token probability of each merit tape
	// in PoW systems (committee systems grant deterministically).
	TokenProb float64
	// Merits optionally sets per-process token probabilities (length N),
	// overriding the uniform TokenProb — the paper's merit parameter αᵢ
	// (e.g. hashing power). Used by the fairness experiments.
	Merits []float64
	// ReadEvery is the period between read() operations at each process.
	ReadEvery int64
	// MaxTicks hard-bounds virtual time.
	MaxTicks int64
}

// WithDefaults returns the params with zero fields replaced by the
// repository-wide simulation defaults — the values a simulator actually
// runs with, exported so callers describing a run (metric snapshots)
// agree with the run itself.
func (p Params) WithDefaults() Params { return p.withDefaults() }

// withDefaults fills zero fields with the defaults used throughout the
// experiments.
func (p Params) withDefaults() Params {
	if p.N == 0 {
		p.N = 8
	}
	if p.TargetBlocks == 0 {
		p.TargetBlocks = 40
	}
	if p.Delta == 0 {
		p.Delta = 8
	}
	if p.MineInterval == 0 {
		p.MineInterval = 4
	}
	if p.TokenProb == 0 {
		p.TokenProb = 0.04
	}
	if p.ReadEvery == 0 {
		p.ReadEvery = 16
	}
	if p.MaxTicks == 0 {
		p.MaxTicks = 1 << 20
	}
	return p
}

// Result is the outcome of one simulated run.
type Result struct {
	// System names the simulated protocol.
	System string
	// Refinement is the paper's claimed refinement, e.g.
	// "R(BT-ADT_EC, Θ_P)".
	Refinement string
	// OracleName is the oracle the simulator actually used.
	OracleName string
	// SelectorName is the selection function f.
	SelectorName string
	// K is the oracle fork bound (oracle.Unbounded for Θ_P).
	K int
	// History is the recorded concurrent history.
	History *history.History
	// Blocks is the number of committed blocks at the best replica.
	Blocks int
	// Forks is the number of tree vertices with more than one child at
	// the most forked replica.
	Forks int
	// Ticks is the virtual time consumed.
	Ticks int64
	// Delivered and Dropped count network messages.
	Delivered, Dropped int
	// Bytes is the estimated wire size of all sent messages (the
	// netsim byte counter) — the msg_bytes instrumentation.
	Bytes int64
	// PartitionHeal is the virtual time the run's network partition
	// healed at (0: the run had no partition). The partition_heal_lag
	// metric measures reconvergence from it.
	PartitionHeal int64
	// Metrics holds the named collector values of this run when the
	// caller requested collection (blockadt.WithMetrics); nil otherwise.
	// The simulators never fill it themselves — the façade computes it
	// from the rest of the result, so disabling metrics costs nothing.
	Metrics map[string]float64
	// Adversary carries the adversarial census when an AdversaryPlan
	// drove the run; nil for honest runs.
	Adversary *AdversaryStats
}

// AdversaryStats is the structured census of an adversarial run: who
// mined, who made the main chain, and (for fruit-bearing protocols) who
// was paid. The fruit fields stay nil/zero for plain withholding runs.
type AdversaryStats struct {
	// AdversaryMined / HonestMined count oracle-validated blocks.
	AdversaryMined, HonestMined int
	// AdversaryShare / HonestShare are main-chain proportions.
	AdversaryShare, HonestShare float64
	// AdversaryMerit is the adversary's entitled share (alpha).
	AdversaryMerit float64
	// Orphaned counts mined blocks that missed the final main chain.
	Orphaned int
	// MainChainByProc is the main-chain authorship census, the input to
	// chain-quality fairness analysis.
	MainChainByProc map[history.ProcID]int
	// BlockShareByProc is main-chain block authorship (fruit runs).
	BlockShareByProc map[history.ProcID]int
	// FruitRewardByProc counts included fruits per miner (fruit runs).
	FruitRewardByProc map[history.ProcID]int
	// AdversaryBlockShare and AdversaryRewardShare are the adversary's
	// realized proportions of blocks vs fruit rewards (fruit runs).
	AdversaryBlockShare, AdversaryRewardShare float64
	// FinalChain is the main chain at an honest replica when the run
	// ended (fruit runs).
	FinalChain blocktree.Chain
}

// Classify runs the consistency checker over the result's history.
func (r Result) Classify(opts consistency.Options) consistency.Classification {
	return consistency.Classify(r.History, opts)
}

// System is one row generator of Table 1.
type System interface {
	// Name returns the system's name as in Table 1.
	Name() string
	// Refinement returns the paper's classification, e.g.
	// "R(BT-ADT_SC, Θ_F,k=1)".
	Refinement() string
	// Expected returns the consistency level the paper assigns.
	Expected() consistency.Level
	// Run simulates the system.
	Run(p Params) Result
}

// All returns the seven systems of Table 1 in the paper's order.
func All() []System {
	return []System{
		Bitcoin{},
		Ethereum{},
		Algorand{},
		ByzCoin{},
		PeerCensus{},
		RedBelly{},
		Hyperledger{},
	}
}

// ByName returns the system with the given (case-sensitive) name.
func ByName(name string) (System, error) {
	for _, s := range All() {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("chains: unknown system %q", name)
}

// equalMerits returns n merit probabilities of p each: the normalized
// α_p = 1/n setting of Section 5 scaled to a per-attempt probability.
func equalMerits(n int, p float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = p
	}
	return out
}

// blockName builds the deterministic block id "b<height>-p<proc>-<n>".
// Zero-padding keeps lexicographic tie-breaks stable and readable.
func blockName(height int, proc history.ProcID, n int) blocktree.BlockID {
	return blocktree.BlockID(fmt.Sprintf("b%04d-p%02d-%04d", height, proc, n))
}

// bestReplica returns the replica stats over a set of replicas: the
// maximal committed chain length and the maximal fork census. Both are
// O(1) reads of counters the trees maintain on Insert — the progress check
// runs every few ticks, so it must not materialize chains.
func bestReplica(reps map[history.ProcID]*netsim.Replica) (blocks, forks int) {
	for _, r := range reps {
		t := r.Tree()
		if n := t.Height(); n > blocks {
			blocks = n
		}
		if f := t.Forks(); f > forks {
			forks = f
		}
	}
	return blocks, forks
}

// Options returns checker options sized for simulator runs: the process
// universe is the full correct set and the grace window spans the
// convergence tail (half the reads, capped). Zero-valued params are
// normalized the way the simulators normalize them, so an N=0 run is
// checked against the 8 processes that actually ran instead of an empty
// universe that satisfies the communication properties vacuously.
func Options(p Params, h *history.History) consistency.Options {
	p = p.withDefaults()
	procs := make([]history.ProcID, p.N)
	for i := range procs {
		procs[i] = history.ProcID(i)
	}
	n := len(h.Reads())
	w := n / 2
	if w < 8 {
		w = 8
	}
	return consistency.Options{Procs: procs, GraceWindow: w}
}

// newProdigal builds the oracle a PoW system uses: prodigal with the
// configured merits (uniform TokenProb unless Params.Merits overrides).
func newProdigal(p Params) *oracle.Oracle {
	merits := p.Merits
	if len(merits) != p.N {
		merits = equalMerits(p.N, p.TokenProb)
	}
	return oracle.NewProdigal(p.Seed, merits...)
}
