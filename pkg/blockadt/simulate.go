package blockadt

import (
	"fmt"

	"blockadt/internal/chains"
	"blockadt/internal/fairness"
)

// Simulate runs a full network simulation of a registered system: WithN
// processes race to WithBlocks committed blocks over the WithLink
// communication model, optionally under a WithAdversary fault model. The
// zero-valued options inherit the repository-wide simulation defaults
// (n=8, 40 blocks, synchronous δ-bounded links, no adversary).
func Simulate(name string, opts ...Option) (SimResult, error) {
	spec, err := LookupSystem(name)
	if err != nil {
		return SimResult{}, err
	}
	s := applyOptions(opts)
	if err := s.instanceOnlyErr("Simulate"); err != nil {
		return SimResult{}, err
	}
	if s.adversary != "" && s.adversary != AdvNone {
		return SimResult{}, fmt.Errorf("blockadt: Simulate runs honest systems; use SimulateAdversary for %q", s.adversary)
	}
	if s.alpha != 0 {
		return SimResult{}, fmt.Errorf("blockadt: WithAlpha applies to SimulateAdversary, not Simulate")
	}
	if err := meritsErr(spec, s); err != nil {
		return SimResult{}, err
	}
	p := s.simParams()
	ex, _, _, err := compose(name, s.linkName(), AdvNone, s.topology, 0, p)
	if err != nil {
		return SimResult{}, err
	}
	mspecs, err := s.metricSpecs()
	if err != nil {
		return SimResult{}, err
	}
	res, err := execute(ex)
	if err != nil {
		return SimResult{}, err
	}
	if len(mspecs) > 0 {
		run := newMetricRun(p, res)
		merits := s.merits
		if len(merits) == 0 {
			merits = equalMerits(run.N)
		}
		run.FairnessTVD = fairness.Analyze(res.History, merits).TVD
		res.Metrics = computeMetrics(mspecs, run)
	}
	return res, nil
}

// meritsErr rejects a WithMerits vector the simulation would silently
// ignore or silently replace with the uniform default.
func meritsErr(spec SystemSpec, s settings) error {
	if len(s.merits) == 0 {
		return nil
	}
	if err := meritRangeErr(s.merits); err != nil {
		return err
	}
	if !spec.MeritAware {
		return fmt.Errorf("blockadt: system %q grants tokens deterministically and ignores WithMerits", spec.Name)
	}
	n := s.n
	if n == 0 {
		n = 8 // the simulators' process-count default
	}
	if len(s.merits) != n {
		return fmt.Errorf("blockadt: WithMerits has %d entries for %d processes — the simulator would fall back to uniform merits", len(s.merits), n)
	}
	return nil
}

// meritRangeErr rejects a merit that is not a token probability: NaN,
// below 0 or above 1.
func meritRangeErr(merits []float64) error {
	for i, m := range merits {
		if !(m >= 0 && m <= 1) {
			return fmt.Errorf("blockadt: merit %d is %v; a merit is a token probability in [0,1]", i, m)
		}
	}
	return nil
}

// ClassifySimulated runs Simulate and classifies the recorded history
// with checker options sized from the same resolved parameters, so
// callers state the configuration exactly once.
func ClassifySimulated(name string, opts ...Option) (SimResult, Classification, error) {
	res, err := Simulate(name, opts...)
	if err != nil {
		return SimResult{}, Classification{}, err
	}
	return res, ClassifyRun(applyOptions(opts).simParams(), res), nil
}

// ExpectedLevel returns the consistency level the theory predicts for
// the named system under the named link model — the same value the sweep
// engine compares measured runs against, so Simulate callers can check
// their classification the way the engine does.
func ExpectedLevel(system, link string) (Level, error) {
	_, expected, _, err := compose(system, link, AdvNone, "", 0, SimParams{})
	if err != nil {
		return 0, err
	}
	return expected, nil
}

// SimulateAdversary runs a registered system under a registered adversary
// holding merit share alpha (WithAlpha; default 0.34).
func SimulateAdversary(system, adversary string, opts ...Option) (AdversaryOutcome, error) {
	if _, err := LookupSystem(system); err != nil {
		return AdversaryOutcome{}, err
	}
	aspec, err := LookupAdversary(adversary)
	if err != nil {
		return AdversaryOutcome{}, err
	}
	if aspec.Plan == nil {
		return AdversaryOutcome{}, fmt.Errorf("blockadt: adversary %q is the honest default; use Simulate", adversary)
	}
	s := applyOptions(opts)
	if err := s.instanceOnlyErr("SimulateAdversary"); err != nil {
		return AdversaryOutcome{}, err
	}
	if s.adversary != "" {
		return AdversaryOutcome{}, fmt.Errorf("blockadt: pass the adversary as SimulateAdversary's argument, not WithAdversary")
	}
	if len(s.merits) != 0 {
		return AdversaryOutcome{}, fmt.Errorf("blockadt: WithMerits conflicts with SimulateAdversary (the adversary model derives merits from WithAlpha)")
	}
	if s.topology != "" && s.topology != TopoComplete {
		// compose would reject the composition too; failing here names
		// the conflicting option.
		return AdversaryOutcome{}, fmt.Errorf("blockadt: WithTopology(%q) conflicts with SimulateAdversary (adversary models assume complete-graph broadcast)", s.topology)
	}
	alpha := s.alpha
	if alpha == 0 {
		alpha = 0.34
	}
	p := s.simParams()
	ex, expected, aspec, err := compose(system, s.linkName(), adversary, "", alpha, p)
	if err != nil {
		return AdversaryOutcome{}, err
	}
	mspecs, err := s.metricSpecs()
	if err != nil {
		return AdversaryOutcome{}, err
	}
	res, err := execute(ex)
	if err != nil {
		return AdversaryOutcome{}, err
	}
	out := adversaryOutcome(aspec, p, alpha, expected, res)
	if len(mspecs) > 0 {
		run := newMetricRun(p, out.SimResult)
		run.FairnessTVD = out.FairnessTVD
		run.Adversarial = true
		run.AdversaryShare = out.AdversaryShare
		run.AdversaryMerit = out.AdversaryMerit
		out.SimResult.Metrics = computeMetrics(mspecs, run)
	}
	return out, nil
}

// SimCheckOptions returns consistency-checker options sized for a
// simulated run: the full correct process universe and a grace window
// spanning the convergence tail.
func SimCheckOptions(p SimParams, h *History) CheckOptions {
	return chains.Options(p, h)
}

// ClassifyRun classifies a simulated run's recorded history with
// simulation-sized checker options.
func ClassifyRun(p SimParams, res SimResult) Classification {
	return res.Classify(chains.Options(p, res.History))
}
