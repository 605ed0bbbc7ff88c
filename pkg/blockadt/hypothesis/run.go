package hypothesis

import (
	"context"
	"fmt"

	"blockadt/pkg/blockadt"
)

// Config parameterizes one Run.
type Config struct {
	// Seeds overrides the experiment's default paired seed count; 0
	// keeps the default. Statistical classes refuse fewer than two —
	// a single seed cannot distinguish signal from seed noise.
	Seeds int
	// Parallelism bounds the sweep workers (<1 selects NumCPU). The
	// outcome is byte-identical at any value.
	Parallelism int
	// Metrics overrides every arm's collected-metric set (e.g. the
	// CLI's -metrics flag). It must still include the experiment's
	// compared metric — blockadt.Compare rejects a set that lacks it.
	// Nil keeps each arm's declared set.
	Metrics []string
	// Options apply to every underlying sweep (store, census, tracer);
	// with a shared run store, reruns and overlapping arms are served
	// cache-first.
	Options []blockadt.RunOption
}

// ResolveSeeds reports the paired seed count Run will use for this
// config: the override if positive, else the experiment default, else 8.
func (e Experiment) ResolveSeeds(cfg Config) int {
	if cfg.Seeds > 0 {
		return cfg.Seeds
	}
	if e.Seeds > 0 {
		return e.Seeds
	}
	return 8
}

// Matrices returns each arm's matrix exactly as Run resolves it under
// cfg — the scenario set a store preflight should check.
func (e Experiment) Matrices(cfg Config) []blockadt.Matrix {
	seeds := e.ResolveSeeds(cfg)
	out := make([]blockadt.Matrix, 0, len(e.Arms))
	for _, a := range e.Arms {
		out = append(out, armMatrix(e, a, seeds, cfg))
	}
	return out
}

// Run executes the experiment and returns its outcome. Every path runs
// through the deterministic sweep engine (blockadt.Stream / Compare),
// so the outcome is a pure function of the experiment and the seed
// count: byte-identical at any parallelism, and cache-first under
// blockadt.WithRunStore.
func Run(ctx context.Context, e Experiment, cfg Config) (*Outcome, error) {
	seeds := e.ResolveSeeds(cfg)
	if e.Class != Deterministic && seeds < 2 {
		return nil, fmt.Errorf("hypothesis: experiment %q needs at least 2 paired seeds for a statistical verdict, got %d", e.Name, seeds)
	}
	out := &Outcome{
		Hypothesis: OutcomeFormat,
		Name:       e.Name,
		Claim:      e.Claim,
		Expected:   e.Class,
		Metric:     e.Metric,
		Seeds:      seeds,
		RootSeed:   e.RootSeed,
	}
	switch e.Class {
	case Deterministic:
		if len(e.Arms) == 0 {
			return nil, fmt.Errorf("hypothesis: experiment %q has no arms", e.Name)
		}
		return runDeterministic(ctx, e, seeds, cfg, out)
	case Dominance, Equivalence:
		if len(e.Arms) != 2 {
			return nil, fmt.Errorf("hypothesis: %s experiment %q needs exactly 2 arms, got %d", e.Class, e.Name, len(e.Arms))
		}
		if e.Class == Dominance && e.Direction == 0 {
			return nil, fmt.Errorf("hypothesis: Dominance experiment %q declares no direction", e.Name)
		}
		out.Direction = e.Direction
		return runTwoArm(ctx, e, seeds, cfg, out)
	case Monotonicity:
		if len(e.Arms) < 3 {
			return nil, fmt.Errorf("hypothesis: Monotonicity experiment %q needs at least 3 arms, got %d", e.Name, len(e.Arms))
		}
		if e.Direction == 0 {
			return nil, fmt.Errorf("hypothesis: Monotonicity experiment %q declares no direction", e.Name)
		}
		out.Direction = e.Direction
		return runMonotonic(ctx, e, seeds, cfg, out)
	default:
		return nil, fmt.Errorf("hypothesis: experiment %q has unknown class %q", e.Name, e.Class)
	}
}

// armMatrix resolves one arm's matrix for this run: the experiment's
// root seed and the run's seed count override whatever the arm's
// declaration carried, so all arms always sweep the same paired seed
// indices from the same root; a Config.Metrics override replaces the
// arm's collected-metric set.
func armMatrix(e Experiment, a Arm, seeds int, cfg Config) blockadt.Matrix {
	m := a.Matrix
	m.Seeds = seeds
	m.RootSeed = e.RootSeed
	if cfg.Metrics != nil {
		m.Metrics = append([]string(nil), cfg.Metrics...)
	}
	return m
}

// runTwoArm handles Dominance and Equivalence: one paired comparison,
// classified by the sign test.
func runTwoArm(ctx context.Context, e Experiment, seeds int, cfg Config, out *Outcome) (*Outcome, error) {
	armA, armB := e.Arms[0], e.Arms[1]
	cmp, err := blockadt.Compare(ctx,
		armMatrix(e, armA, seeds, cfg), armMatrix(e, armB, seeds, cfg),
		e.Metric, cfg.Parallelism, cfg.Options...)
	if err != nil {
		return nil, err
	}
	if len(cmp.Pairs) == 0 {
		return nil, fmt.Errorf("hypothesis: experiment %q produced no paired scenarios (every row was unpaired or the metric never applied)", e.Name)
	}
	measured, mdir, tests := evaluatePairs(cmp.Pairs)
	out.Measured = measured
	out.MeasuredDirection = mdir
	out.Verdict = verdictTwoArm(e.Class, e.Direction, measured, mdir, tests)
	out.Arms = []ArmOutcome{
		{Label: armA.Label, Value: armA.Value, Stats: &cmp.A},
		{Label: armB.Label, Value: armB.Value, Stats: &cmp.B},
	}
	out.Comparisons = []ComparisonOutcome{{ALabel: armA.Label, BLabel: armB.Label, Comparison: cmp, Tests: tests}}
	out.Notes = append(out.Notes, comparisonNotes(armA.Label, armB.Label, cmp)...)
	if tests.Note != "" {
		out.Notes = append(out.Notes, tests.Note)
	}
	return out, nil
}

// runMonotonic handles Monotonicity: every adjacent pair of arms is
// compared to check the mean ordering, and the endpoint pair carries
// the significance gate. Under a shared run store each arm simulates
// once and the overlapping comparisons are cache hits.
func runMonotonic(ctx context.Context, e Experiment, seeds int, cfg Config, out *Outcome) (*Outcome, error) {
	arms := e.Arms
	for i := 1; i < len(arms); i++ {
		if arms[i].Value <= arms[i-1].Value {
			return nil, fmt.Errorf("hypothesis: Monotonicity experiment %q arms must be in strictly ascending Value order (arm %d: %v after %v)",
				e.Name, i, arms[i].Value, arms[i-1].Value)
		}
	}
	dir := float64(e.Direction)

	// Adjacent comparisons establish the per-step ordering and give each
	// arm its paired summary statistics.
	meansOrdered := true
	for i := 0; i+1 < len(arms); i++ {
		cmp, err := blockadt.Compare(ctx,
			armMatrix(e, arms[i], seeds, cfg), armMatrix(e, arms[i+1], seeds, cfg),
			e.Metric, cfg.Parallelism, cfg.Options...)
		if err != nil {
			return nil, err
		}
		if len(cmp.Pairs) == 0 {
			return nil, fmt.Errorf("hypothesis: experiment %q arms %q and %q share no paired scenarios", e.Name, arms[i].Label, arms[i+1].Label)
		}
		_, _, tests := evaluatePairs(cmp.Pairs)
		if dir*(cmp.B.Mean-cmp.A.Mean) <= 0 {
			meansOrdered = false
		}
		a := cmp.A
		out.Arms = append(out.Arms, ArmOutcome{Label: arms[i].Label, Value: arms[i].Value, Stats: &a})
		if i+2 == len(arms) {
			b := cmp.B
			out.Arms = append(out.Arms, ArmOutcome{Label: arms[i+1].Label, Value: arms[i+1].Value, Stats: &b})
		}
		out.Comparisons = append(out.Comparisons, ComparisonOutcome{ALabel: arms[i].Label, BLabel: arms[i+1].Label, Comparison: cmp, Tests: tests})
		out.Notes = append(out.Notes, comparisonNotes(arms[i].Label, arms[i+1].Label, cmp)...)
	}

	// The endpoint comparison carries the significance gate: if the
	// extremes are not significantly separated, no amount of in-between
	// ordering makes the trend statistically real.
	first, last := arms[0], arms[len(arms)-1]
	end, err := blockadt.Compare(ctx,
		armMatrix(e, first, seeds, cfg), armMatrix(e, last, seeds, cfg),
		e.Metric, cfg.Parallelism, cfg.Options...)
	if err != nil {
		return nil, err
	}
	if len(end.Pairs) == 0 {
		return nil, fmt.Errorf("hypothesis: experiment %q endpoint arms %q and %q share no paired scenarios", e.Name, first.Label, last.Label)
	}
	endClass, endDir, endTests := evaluatePairs(end.Pairs)
	out.Comparisons = append(out.Comparisons, ComparisonOutcome{ALabel: first.Label, BLabel: last.Label, Comparison: end, Tests: endTests})
	if endTests.Note != "" {
		out.Notes = append(out.Notes, endTests.Note)
	}
	out.MeasuredDirection = endDir

	switch {
	case endClass == Dominance && endDir == e.Direction && meansOrdered:
		out.Measured = Monotonicity
		out.Verdict = Confirmed
	case endClass == Dominance && endDir == -e.Direction:
		// The extremes separate significantly the wrong way.
		out.Measured = Dominance
		out.Verdict = Refuted
	case endTests.SignPos == 0 && endTests.SignNeg == 0:
		// The endpoints tie on every pair: the metric provably does not
		// move across the axis.
		out.Measured = Equivalence
		out.Verdict = Refuted
	default:
		out.Measured = Equivalence
		out.Verdict = Inconclusive
		if endClass == Dominance && !meansOrdered {
			out.Measured = Dominance
			out.Notes = append(out.Notes, "endpoints separate significantly but intermediate arm means are not monotone")
		} else if meansOrdered {
			out.Notes = append(out.Notes, "arm means are ordered but the endpoint difference is not significant")
		}
	}
	return out, nil
}

// runDeterministic handles Deterministic: every arm's runs must measure
// the arm's claimed level, at every seed — no statistics, one row at
// another level refutes.
func runDeterministic(ctx context.Context, e Experiment, seeds int, cfg Config, out *Outcome) (*Outcome, error) {
	confirmed := true
	for _, arm := range e.Arms {
		det := &DeterminismOutcome{Expected: arm.Level.String(), Levels: map[string]int{}}
		for r, err := range blockadt.Stream(ctx, armMatrix(e, arm, seeds, cfg), cfg.Parallelism, cfg.Options...) {
			if err != nil {
				return nil, err
			}
			det.Rows++
			if r.Level == det.Expected {
				det.Matched++
			}
			det.Levels[r.Level]++
		}
		if det.Rows == 0 {
			return nil, fmt.Errorf("hypothesis: experiment %q arm %q expands to no scenarios", e.Name, arm.Label)
		}
		if det.Matched != det.Rows {
			confirmed = false
		}
		out.Arms = append(out.Arms, ArmOutcome{Label: arm.Label, Value: arm.Value, Determinism: det})
	}
	out.Measured = Deterministic
	if confirmed {
		out.Verdict = Confirmed
	} else {
		out.Verdict = Refuted
	}
	return out, nil
}

// comparisonNotes renders a comparison's dropped-row bookkeeping as
// human-readable caveats (empty when everything paired and applied).
func comparisonNotes(aLabel, bLabel string, cmp *blockadt.Comparison) []string {
	var notes []string
	if cmp.UnpairedA > 0 || cmp.UnpairedB > 0 {
		notes = append(notes, fmt.Sprintf("unpaired scenarios dropped: %d only in %q, %d only in %q",
			cmp.UnpairedA, aLabel, cmp.UnpairedB, bLabel))
	}
	if cmp.SkippedA > 0 || cmp.SkippedB > 0 {
		notes = append(notes, fmt.Sprintf("pairs dropped where %q was inapplicable: %d in %q, %d in %q",
			cmp.Metric, cmp.SkippedA, aLabel, cmp.SkippedB, bLabel))
	}
	return notes
}
