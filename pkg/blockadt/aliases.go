package blockadt

import (
	"blockadt/internal/blocktree"
	"blockadt/internal/chains"
	"blockadt/internal/consistency"
	"blockadt/internal/history"
	"blockadt/internal/oracle"
)

// Core data types of the BT-ADT, re-exported so façade consumers never
// touch internal import paths. These are type aliases, not copies: values
// flow freely between the façade and the implementation.
type (
	// Block is a BlockTree vertex: id, parent link, oracle token, payload.
	Block = blocktree.Block
	// BlockID names a block.
	BlockID = blocktree.BlockID
	// Chain is a selected blockchain {b0}⌢f(bt) of blocks.
	Chain = blocktree.Chain
	// Tree is the BlockTree bt.
	Tree = blocktree.Tree
	// Predicate is the application validity predicate P of Section 3.1.
	Predicate = blocktree.Predicate

	// ProcID identifies a process.
	ProcID = history.ProcID
	// BlockRef names a block inside a recorded history.
	BlockRef = history.BlockRef
	// History is an immutable recorded concurrent history.
	History = history.History
	// HistoryChain is a chain of block references inside a history.
	HistoryChain = history.Chain
	// Recorder collects history events.
	Recorder = history.Recorder
	// Label describes one recorded operation.
	Label = history.Label

	// Level is a BT consistency level (None / EC / SC).
	Level = consistency.Level
	// CheckOptions parameterizes the consistency checkers.
	CheckOptions = consistency.Options
	// Verdict is one criterion's outcome.
	Verdict = consistency.Verdict
	// ConsistencyReport aggregates the verdicts of one criterion family.
	ConsistencyReport = consistency.Report
	// Classification is the checker's overall (SC report, EC report,
	// level) triple.
	Classification = consistency.Classification

	// SimParams configures a full network simulation of a registered
	// system.
	SimParams = chains.Params
	// SimSystem is one Table 1 row: a refinement R(BT-ADT_C, Θ) read
	// through a selection function f, simulated by its Run.
	SimSystem = chains.System
	// SimResult is the outcome of one simulated run.
	SimResult = chains.Result
	// LinkPlan is the executor's link strategy a LinkSpec registers; the
	// zero value is the synchronous default.
	LinkPlan = chains.LinkPlan
	// AdversaryPlan is the executor's fault strategy an AdversarySpec's
	// Plan returns; it owns the run it drives.
	AdversaryPlan = chains.AdversaryPlan
	// AdversaryStats is the structured census an adversarial execution
	// attaches to its result.
	AdversaryStats = chains.AdversaryStats

	// OracleToken is the right, granted by getToken, to chain a block.
	OracleToken = oracle.Token
	// OracleStats snapshots an oracle's operation counters.
	OracleStats = oracle.Stats
)

// Consistency levels, re-exported.
const (
	LevelNone = consistency.LevelNone
	LevelEC   = consistency.LevelEC
	LevelSC   = consistency.LevelSC
)

// GenesisID is the id of the genesis block b0 every tree is rooted at.
const GenesisID = blocktree.GenesisID

// NewTree returns an empty BlockTree holding only the genesis block.
func NewTree() *Tree { return blocktree.New() }

// Genesis returns the genesis block b0.
func Genesis() Block { return blocktree.Genesis() }

// NewRecorder returns a fresh history recorder.
func NewRecorder() *Recorder { return history.NewRecorder() }

// Operation kinds of recorded history labels.
const (
	KindAppend = history.KindAppend
	KindRead   = history.KindRead
)

// NewOracle constructs a token oracle directly from a configuration (K =
// Unbounded gives Θ_P, K ≥ 1 gives Θ_F,k). Prefer NewOracleByName for
// registry-driven construction.
func NewOracle(cfg OracleConfig) *Oracle { return oracle.New(cfg) }

// NewProdigalOracle returns Θ_P with the given merit probabilities.
func NewProdigalOracle(seed uint64, merits ...float64) *Oracle {
	return oracle.NewProdigal(seed, merits...)
}

// NewFrugalOracle returns Θ_F,k with the given merit probabilities.
func NewFrugalOracle(k int, seed uint64, merits ...float64) *Oracle {
	return oracle.NewFrugal(k, seed, merits...)
}

// NewOracleByName constructs a registered oracle family with the given
// configuration.
func NewOracleByName(name string, cfg OracleConfig) (*Oracle, error) {
	spec, err := LookupOracle(name)
	if err != nil {
		return nil, err
	}
	return spec.New(cfg), nil
}

// NewSelector constructs a registered selection function by name.
func NewSelector(name string) (Selector, error) {
	spec, err := LookupSelector(name)
	if err != nil {
		return nil, err
	}
	return spec.New(), nil
}
