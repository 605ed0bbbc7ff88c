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
	"strconv"

	"blockadt/internal/blocktree"
	"blockadt/internal/consistency"
	"blockadt/internal/history"
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
	// Adversary carries the adversarial census when an AdversaryPlan
	// drove the run; nil for honest runs.
	Adversary *AdversaryStats
}

// AdversaryStats is the structured census of an adversarial run: who
// mined, who made the main chain, and (for fruit-bearing protocols) who
// was paid. Both withholding plans fill the block fields; the fruit
// fields (BlockShareByProc through FinalChain) stay nil/zero for plain
// withholding runs.
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

// equalMerits returns n merit probabilities of p each: the normalized
// α_p = 1/n setting of Section 5 scaled to a per-attempt probability.
func equalMerits(n int, p float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = p
	}
	return out
}

// blockName builds the deterministic block id "b<height>-<tag><proc>-<n>",
// padded as fmt pads "b%04d-%c%02d-%04d", in one buffer. The tag is 'p'
// for honest miners and 'z' for the selfish adversary. Zero-padding keeps
// lexicographic tie-breaks stable and readable.
func blockName(height int, tag byte, proc history.ProcID, n int) blocktree.BlockID {
	var buf [32]byte
	b := appendPadded(append(buf[:0], 'b'), height, 4)
	return blocktree.BlockID(appendMinerSeq(append(b, '-'), tag, proc, n))
}

// fruitName builds the fruit id "f-<tag><proc>-<n>", padded as fmt pads
// "f-%c%02d-%04d".
func fruitName(tag byte, proc history.ProcID, n int) string {
	var buf [24]byte
	return string(appendMinerSeq(append(buf[:0], "f-"...), tag, proc, n))
}

// appendMinerSeq appends "<tag><proc>-<n>" with proc zero-padded to two
// characters and n to four: the part of a block or fruit id that names
// its miner and the miner's sequence number.
func appendMinerSeq(b []byte, tag byte, proc history.ProcID, n int) []byte {
	b = appendPadded(append(b, tag), int(proc), 2)
	return appendPadded(append(b, '-'), n, 4)
}

// appendPadded appends n in decimal, zero-padded to width characters,
// sign included, as fmt's %0<width>d pads it.
func appendPadded(b []byte, n, width int) []byte {
	u := uint64(n)
	if n < 0 {
		b = append(b, '-')
		u, width = -u, width-1
	}
	var d [20]byte
	digits := strconv.AppendUint(d[:0], u, 10)
	for i := len(digits); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, digits...)
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
