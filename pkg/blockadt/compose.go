package blockadt

import (
	"fmt"

	"blockadt/internal/chains"
)

// compose is the one resolver behind every entry point — the sweep
// engine, RunScenario, Simulate and SimulateAdversary. It looks up each
// axis of a (system, link, adversary, topology) tuple, refuses the tuple
// unless admits it (the predicate Matrix.Configs prunes on), and returns
// the scenario to run and the adversary spec that owns the run (the
// honest default, with a nil Plan, for honest runs). An empty topology
// is the complete graph. alpha is read only when the adversary has a
// Plan, and must then lie in (0,1). A negative process count or block
// target is an error; zero selects the simulators' default. The writer
// count must lie in [0, N] against the defaulted N (0 means every
// process writes).
func compose(system, link, adversary, topology string, alpha float64, p SimParams) (sc chains.Scenario, adv AdversarySpec, err error) {
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
	if !admits(spec.SimSystem, l, adv, t) {
		err = fmt.Errorf("blockadt: system %q does not compose with link %q, adversary %q and topology %q", system, link, adversary, topology)
		return
	}
	var plan AdversaryPlan
	if adv.Plan != nil {
		if alpha <= 0 || alpha >= 1 {
			err = fmt.Errorf("blockadt: adversary merit share must be in (0,1), got %v", alpha)
			return
		}
		plan = adv.Plan(alpha)
	}
	return chains.Scenario{System: spec.SimSystem, Links: l.Link, Adversary: plan, Topology: t.Topology, Params: p}, adv, nil
}

// admits is the one support predicate of the scenario space: what the
// executor can run (chains.Composes), narrowed by the adversary's and
// the topology's own Supports. The defaults (the honest adversary, the
// complete graph) are never narrowed.
func admits(system SimSystem, l LinkSpec, a AdversarySpec, t TopologySpec) bool {
	return chains.Composes(system, l.Link, a.Plan != nil, t.Topology) &&
		(a.Plan == nil || a.Supports == nil || a.Supports(system)) &&
		(t.Topology.IsDefault() || t.Supports == nil || t.Supports(system))
}
