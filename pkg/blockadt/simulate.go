package blockadt

import (
	"fmt"

	"blockadt/internal/chains"
)

// Simulate runs a full network simulation of a registered honest system:
// WithN processes race to WithBlocks committed blocks over the WithLink
// communication model. The zero-valued options inherit the
// repository-wide simulation defaults (n=8, 40 blocks, synchronous
// δ-bounded links); SimulateAdversary runs a fault model.
func Simulate(name string, opts ...Option) (SimResult, error) {
	spec, err := LookupSystem(name)
	if err != nil {
		return SimResult{}, err
	}
	s := applyOptions(opts)
	if err := s.instanceOnlyErr("Simulate"); err != nil {
		return SimResult{}, err
	}
	if s.alpha != 0 {
		return SimResult{}, fmt.Errorf("blockadt: WithAlpha applies to SimulateAdversary, not Simulate")
	}
	if err := meritsErr(spec, s); err != nil {
		return SimResult{}, err
	}
	sc, _, err := compose(name, s.linkName(), AdvNone, s.topology, 0, s.simParams())
	if err != nil {
		return SimResult{}, err
	}
	return chains.Execute(sc)
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
	// Only a PoW row draws its prodigal tapes from the merits; a
	// committee row grants deterministically and would run uniform.
	if !spec.PoW() {
		return fmt.Errorf("blockadt: system %q grants tokens deterministically and ignores WithMerits", spec.Name)
	}
	n := s.simParams().WithDefaults().N
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
	sc, aspec, err := compose(system, s.linkName(), adversary, "", alpha, p)
	if err != nil {
		return AdversaryOutcome{}, err
	}
	res, err := chains.Execute(sc)
	if err != nil {
		return AdversaryOutcome{}, err
	}
	return adversaryOutcome(aspec, p, alpha, res), nil
}

// ClassifyRun classifies a simulated run's recorded history with
// simulation-sized checker options.
func ClassifyRun(p SimParams, res SimResult) Classification {
	return res.Classify(chains.Options(p, res.History))
}
