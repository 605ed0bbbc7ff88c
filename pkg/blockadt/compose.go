package blockadt

import (
	"errors"
	"fmt"

	"blockadt/internal/chains"
)

// compose is the one resolver behind every entry point — the sweep
// engine, RunScenario, Simulate and SimulateAdversary. It
// looks up each axis of a (system, link, adversary, topology) tuple,
// rejects compositions the registrations do not support (supportErr, the
// predicate Matrix.Configs prunes on), applies the axes' Plan hooks and
// returns the Execution to run, the consistency level the theory
// predicts for it and the adversary spec that owns the run (the honest
// default, with a nil Plan, for honest runs). An empty topology is the
// complete graph. alpha is read only when the adversary has a Plan, and
// must then lie in (0,1). A negative process count or block target is an
// error; zero selects the simulators' default. The writer count must lie
// in [0, N] against the defaulted N (0 means every process writes).
func compose(system, link, adversary, topology string, alpha float64, p SimParams) (ex Execution, expected Level, adv AdversarySpec, err error) {
	if err = checkN(p.N); err != nil {
		return
	}
	if n := p.WithDefaults().N; p.Writers < 0 || p.Writers > n {
		err = fmt.Errorf("blockadt: writer count must be in [0,%d] (0 means every process), got %d", n, p.Writers)
		return
	}
	if p.TargetBlocks < 0 {
		err = fmt.Errorf("blockadt: target blocks must be >= 0 (0 selects the default), got %d", p.TargetBlocks)
		return
	}
	if topology == "" {
		topology = TopoComplete
	}
	spec, err := LookupSystem(system)
	if err != nil {
		return
	}
	l, err := LookupLink(link)
	if err != nil {
		return
	}
	adv, err = LookupAdversary(adversary)
	if err != nil {
		return
	}
	t, err := LookupTopology(topology)
	if err != nil {
		return
	}
	if err = supportErr(system, l, adv, t); err != nil {
		return
	}
	ex = Execution{System: specSystem{spec}, Params: p}
	expected = spec.Expected
	if l.Plan != nil {
		l.Plan(&ex)
	}
	if l.Expected != nil {
		expected = l.Expected(system, spec.Expected)
	}
	if adv.Plan != nil {
		if alpha <= 0 || alpha >= 1 {
			err = fmt.Errorf("blockadt: adversary merit share must be in (0,1), got %v", alpha)
			return
		}
		adv.Plan(&ex, alpha)
		if adv.Expected != nil {
			expected = adv.Expected(system, link, spec.Expected)
		}
	}
	if t.Plan != nil {
		t.Plan(&ex)
		if t.Expected != nil {
			expected = t.Expected(system, link, expected)
		}
	}
	return ex, expected, adv, nil
}

// supportErr is the one support predicate of the scenario space: nil
// when the registrations admit the tuple, otherwise the reason they do
// not. A nil Supports admits everything, and the nil-Plan defaults (the
// honest adversary, the complete graph) are never excluded.
func supportErr(system string, l LinkSpec, a AdversarySpec, t TopologySpec) error {
	switch {
	case l.Supports != nil && !l.Supports(system):
		return fmt.Errorf("blockadt: system %q does not implement link model %q", system, l.Name)
	case a.Plan != nil && a.Supports != nil && !a.Supports(system, l.Name):
		return fmt.Errorf("blockadt: system %q does not implement adversary %q under link %q", system, a.Name, l.Name)
	case t.Plan != nil && t.Supports != nil && !t.Supports(system, l.Name, a.Name):
		return fmt.Errorf("blockadt: system %q does not implement topology %q under link %q and adversary %q", system, t.Name, l.Name, a.Name)
	}
	return nil
}

// execute runs a composed Execution, lifting the executor's typed
// failures into the façade's error vocabulary: a system outside the
// generic PoW driver's support set surfaces as the same *UnknownNameError
// a registry miss produces (Kind "system", Registered = the driver's
// support set). Other executor errors (composition mistakes) pass
// through unchanged.
func execute(ex Execution) (SimResult, error) {
	res, err := chains.Execute(ex)
	var ue *chains.UnknownSystemError
	if errors.As(err, &ue) {
		return res, &UnknownNameError{Kind: "system", Name: ue.System, Registered: ue.Known}
	}
	return res, err
}
