// Package hypothesis is the statistical A-vs-B verdict harness over the
// blockadt scenario engine: declare an experiment — a claim, two or more
// matrix arms differing in exactly one dimension, a metric, and an
// expected relationship — and Run turns deterministic paired sweeps into
// a Confirmed/Refuted/Inconclusive verdict with the per-seed evidence
// attached.
//
// The harness exists because the repository's sweeps answer "what
// happened" but not "is the difference real": a fork-rate gap between
// two link models over eight seeds may be signal or seed noise. Pairing
// arms seed-for-seed (blockadt.Compare) makes the per-seed differences
// exchangeable under the null hypothesis, so an exact paired sign test
// — backed by a Welch t as a parametric second opinion — turns the gap
// into a p-value with no distributional assumptions and no external
// statistics dependency.
//
// Everything downstream of the simulator is a pure fold of the paired
// results, so outcomes are byte-identical at any parallelism and
// cache-first under a shared run store — the properties that let CI gate
// on a checked-in verdict with `btadt diff -tol 0`.
package hypothesis

import (
	"fmt"
	"sync"

	"blockadt/pkg/blockadt"
)

// Class is a relationship an experiment claims between its arms.
type Class string

const (
	// Deterministic claims every run of each arm measures the arm's
	// claimed consistency level (Arm.Level) — no statistics, every row
	// must measure it.
	Deterministic Class = "Deterministic"
	// Dominance claims arm B's metric exceeds arm A's (Direction +1; -1
	// for the reverse), consistently enough to pass the paired sign test.
	Dominance Class = "Dominance"
	// Monotonicity claims the metric moves monotonically with the arms'
	// Value axis, with a significant endpoint-to-endpoint difference.
	Monotonicity Class = "Monotonicity"
	// Equivalence claims the arms are statistically indistinguishable on
	// the metric.
	Equivalence Class = "Equivalence"
)

// Verdict is the comparison of the expected class against the measured
// evidence.
type Verdict string

const (
	// Confirmed: the measured relationship matches the claim.
	Confirmed Verdict = "confirmed"
	// Refuted: the evidence is significant and contradicts the claim.
	Refuted Verdict = "refuted"
	// Inconclusive: the evidence neither confirms nor significantly
	// contradicts (e.g. the right direction without significance).
	Inconclusive Verdict = "inconclusive"
)

// SignificanceLevel is the two-sided significance gate of the paired
// sign test. With eight paired seeds a unanimous direction reaches
// p = 2/256 ≈ 0.008; six paired seeds are the minimum that can clear
// the gate at all.
const SignificanceLevel = 0.05

// Arm is one configuration of an experiment: a scenario matrix plus its
// position on the varied axis. The matrix's Seeds field is ignored —
// the runner stamps the experiment's (or the caller's) seed count so
// every arm always sweeps the same seed indices.
type Arm struct {
	// Label names the arm in findings ("sync", "α=0.25", "p=0.10 gst=16δ").
	Label string
	// Value is the arm's coordinate on the varied axis, used to order
	// Monotonicity arms and reported in findings. Unused (0) for
	// two-arm and Deterministic experiments.
	Value float64
	// Matrix is the arm's scenario matrix. Arms of one experiment must
	// differ in exactly one comparable dimension (blockadt.Compare's
	// contract) so their scenarios pair seed-for-seed.
	Matrix blockadt.Matrix
	// Level is the consistency level a Deterministic arm claims each of
	// its runs measures — exactly that level, not merely one at least as
	// strong, so an arm claiming none is refuted by a run that converges.
	// Unused by the statistical classes.
	Level blockadt.Level
}

// Experiment declares one hypothesis: a claim, the arms that probe it,
// the metric that measures it, and the relationship the claim predicts.
type Experiment struct {
	// Name is the registry key (kebab-case, also the findings directory
	// name).
	Name string
	// Claim is the prose statement the verdict confirms or refutes.
	Claim string
	// Class is the claimed relationship.
	Class Class
	// Metric is the registered metric compared across arms. Empty for
	// Deterministic experiments, which judge per-run consistency levels
	// instead.
	Metric string
	// Direction is +1 when the metric is claimed to increase from arm A
	// to arm B (or along the Value axis), -1 for decrease. Unused for
	// Deterministic and Equivalence claims.
	Direction int
	// Seeds is the default paired seed count per arm; callers may
	// override it upward or downward (but never below two for
	// statistical classes — Run refuses).
	Seeds int
	// RootSeed is the experiment's root seed; arms share it so scenario
	// streams pair up.
	RootSeed uint64
	// Arms are the configurations, in comparison order: exactly two for
	// Dominance/Equivalence, three or more in ascending Value order for
	// Monotonicity, one or more for Deterministic.
	Arms []Arm
}

// The experiment registry mirrors the façade's: name-keyed,
// registration-order-preserving, with misses reported as
// *blockadt.UnknownNameError (Kind "experiment") so errors.Is/As work
// the same way they do for every other registry.
var (
	regMu    sync.RWMutex
	regOrder []string
	regByKey = map[string]Experiment{}
)

// Register adds an experiment to the registry, panicking on an empty or
// duplicate name like the façade's Register* functions do.
func Register(e Experiment) {
	if e.Name == "" {
		panic("hypothesis: cannot register an experiment with an empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := regByKey[e.Name]; dup {
		panic(fmt.Sprintf("hypothesis: experiment %q registered twice", e.Name))
	}
	regOrder = append(regOrder, e.Name)
	regByKey[e.Name] = e
}

// Lookup returns the registered experiment, or an UnknownNameError
// naming the registered alternatives.
func Lookup(name string) (Experiment, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := regByKey[name]
	if !ok {
		return Experiment{}, &blockadt.UnknownNameError{
			Kind:       "experiment",
			Name:       name,
			Registered: append([]string(nil), regOrder...),
		}
	}
	return e, nil
}

// Names returns the registered experiment names in registration order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]string(nil), regOrder...)
}

// All returns every registered experiment in registration order.
func All() []Experiment {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Experiment, 0, len(regOrder))
	for _, name := range regOrder {
		out = append(out, regByKey[name])
	}
	return out
}
