package hypothesis

import (
	"encoding/json"
	"fmt"
	"io"

	"blockadt/pkg/blockadt"
)

// OutcomeFormat is the value of every outcome's discriminator field —
// `btadt diff` sniffs it to pick the hypothesis comparison path, and it
// versions the JSON shape for CI goldens.
const OutcomeFormat = "btadt-hypothesis-v1"

// Outcome is the complete result of running one experiment: the claim,
// the verdict, per-arm summaries, and — for statistical classes — every
// paired observation and test statistic that produced it. All fields
// are pure functions of the experiment and its seed count, so encoding
// an outcome is byte-identical across runs, parallelism levels, and
// cache states.
type Outcome struct {
	// Hypothesis is the format discriminator (OutcomeFormat).
	Hypothesis string `json:"hypothesis"`
	Name       string `json:"name"`
	Claim      string `json:"claim"`
	// Expected is the claimed class; Measured is the class the evidence
	// supports; Verdict compares them.
	Expected Class   `json:"expectedClass"`
	Measured Class   `json:"measuredClass"`
	Verdict  Verdict `json:"verdict"`
	Metric   string  `json:"metric,omitempty"`
	// Direction is the claimed direction (+1/-1); MeasuredDirection is
	// the direction the evidence supports (0 when none).
	Direction         int    `json:"direction,omitempty"`
	MeasuredDirection int    `json:"measuredDirection,omitempty"`
	Seeds             int    `json:"seeds"`
	RootSeed          uint64 `json:"rootSeed"`
	// Arms summarizes each arm in experiment order.
	Arms []ArmOutcome `json:"arms"`
	// Comparisons are the paired A-vs-B runs behind the verdict:
	// one for two-arm experiments; each adjacent pair plus the
	// endpoints for Monotonicity. Empty for Deterministic experiments.
	Comparisons []ComparisonOutcome `json:"comparisons,omitempty"`
	// Notes carry human-readable caveats (zero-variance arms, skipped
	// Welch tests, unpaired rows).
	Notes []string `json:"notes,omitempty"`
}

// ArmOutcome summarizes one arm.
type ArmOutcome struct {
	Label string  `json:"label"`
	Value float64 `json:"value,omitempty"`
	// Stats summarizes the compared metric over the arm's paired rows
	// (statistical classes only).
	Stats *blockadt.ArmStats `json:"stats,omitempty"`
	// Determinism reports the per-run consistency-level check
	// (Deterministic class only).
	Determinism *DeterminismOutcome `json:"determinism,omitempty"`
}

// DeterminismOutcome is one arm's claimed-vs-measured consistency
// tally: how many of the arm's runs measured the level the arm claims.
type DeterminismOutcome struct {
	// Rows and Matched count the arm's scenario runs and how many
	// measured the claimed level.
	Rows    int `json:"rows"`
	Matched int `json:"matched"`
	// Expected is the arm's claimed consistency level (Arm.Level: "SC",
	// "EC", "none"); Levels histograms the measured ones.
	Expected string         `json:"expectedLevel"`
	Levels   map[string]int `json:"levels"`
}

// ComparisonOutcome is one paired A-vs-B comparison with its test
// statistics.
type ComparisonOutcome struct {
	ALabel string `json:"aLabel"`
	BLabel string `json:"bLabel"`
	// Comparison carries the paired values and per-arm stats
	// (blockadt.Compare's result).
	Comparison *blockadt.Comparison `json:"comparison"`
	// Tests carries the paired sign test and, when defined, the Welch t.
	Tests TestReport `json:"tests"`
}

// TestReport is the statistical evidence of one paired comparison.
type TestReport struct {
	// SignPos counts pairs where B > A, SignNeg where B < A, SignTies
	// where they are equal; SignP is the exact two-sided sign-test
	// p-value over the non-tied pairs.
	SignPos  int     `json:"signPos"`
	SignNeg  int     `json:"signNeg"`
	SignTies int     `json:"signTies"`
	SignP    float64 `json:"signP"`
	// Welch is the two-sample Welch t-test over the two arms' values —
	// a parametric second opinion, never the gate. Omitted when
	// undefined (fewer than two observations per arm, or both arms
	// zero-variance).
	Welch *WelchOutcome `json:"welch,omitempty"`
	// Note explains an omitted or degenerate test.
	Note string `json:"note,omitempty"`
}

// WelchOutcome is a computed Welch t-test.
type WelchOutcome struct {
	T  float64 `json:"t"`
	DF float64 `json:"df"`
	P  float64 `json:"p"`
}

// EncodeJSON writes the outcome in the repository's canonical JSON
// form: two-space indent, no HTML escaping, trailing newline — the
// byte-exact shape `btadt diff -tol 0` gates on.
func (o *Outcome) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(o)
}

// DecodeOutcome reads a canonical outcome back, rejecting JSON that
// does not carry the expected discriminator.
func DecodeOutcome(r io.Reader) (*Outcome, error) {
	var o Outcome
	dec := json.NewDecoder(r)
	if err := dec.Decode(&o); err != nil {
		return nil, err
	}
	if o.Hypothesis != OutcomeFormat {
		return nil, &FormatError{Got: o.Hypothesis}
	}
	return &o, nil
}

// FormatError reports a hypothesis JSON document of the wrong format
// version (or not a hypothesis document at all).
type FormatError struct{ Got string }

func (e *FormatError) Error() string {
	return fmt.Sprintf("hypothesis: document is not %s (got %q)", OutcomeFormat, e.Got)
}
