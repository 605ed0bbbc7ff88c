package blockadt

import (
	"fmt"

	"blockadt/internal/core"
	"blockadt/internal/finality"
)

// System is a live blockchain object — the paper's refinement R(BT-ADT, Θ)
// — produced by New. Append and Read are the two operations of Definition
// 3.7; History exposes the recorded concurrent history for the consistency
// checkers; Finality returns the finalized prefix under the configured
// depth-d gadget.
type System interface {
	// Name returns the registered system name the instance was built from.
	Name() string
	// Refinement returns the paper's classification of the system.
	Refinement() string
	// Append implements the refined append(b) on behalf of proc: loop
	// getToken on the tip of f(bt), consume the token, concatenate —
	// atomically. It reports whether the block entered the tree.
	Append(proc ProcID, b Block) (bool, error)
	// Read implements read(): {b0}⌢f(bt).
	Read(proc ProcID) Chain
	// History returns an immutable snapshot of the recorded history.
	History() *History
	// Finality returns the currently finalized chain prefix: the selected
	// chain truncated by the gadget's depth, with a monotonicity check —
	// an error reports a finality violation (a finalized block left the
	// selected chain).
	Finality() (HistoryChain, error)
}

// Instance is the concrete System returned by New. Beyond the System
// interface it exposes the composed parts for inspection.
type Instance struct {
	spec   SystemSpec
	bc     *core.Blockchain
	gadget *finality.Gadget
}

var _ System = (*Instance)(nil)

// New composes a live System from the registry: the named system's row
// picks the oracle family — prodigal for a PoW row, frugal otherwise —
// and the selection function registered under its selector's name
// (overridable via WithOracle/WithSelector/WithOracleInstance), WithSeed
// seeds the oracle tapes, WithN sets the merit count (default 1, every
// merit granting with probability 1 so appends terminate
// deterministically — override with WithMerits for probabilistic
// validation; a negative count is an error).
// A frugal oracle built by name has fork bound k = 1; inject
// NewFrugalOracle(k, …) with WithOracleInstance for another k.
func New(name string, opts ...Option) (*Instance, error) {
	spec, err := LookupSystem(name)
	if err != nil {
		return nil, err
	}
	s := applyOptions(opts)
	if err := s.simulationOnlyErr(); err != nil {
		return nil, err
	}
	if err := checkN(s.n); err != nil {
		return nil, err
	}
	if err := meritRangeErr(s.merits); err != nil {
		return nil, err
	}

	orc := s.oracleInstance
	if orc != nil {
		// An injected oracle carries its own tape seed, merits and fork
		// bound; accepting the registry-construction knobs alongside it
		// would silently ignore them.
		switch {
		case s.oracle != "":
			return nil, fmt.Errorf("blockadt: WithOracle conflicts with WithOracleInstance")
		case len(s.merits) != 0:
			return nil, fmt.Errorf("blockadt: WithMerits conflicts with WithOracleInstance (the injected oracle fixes its merit tapes)")
		case s.seed != 0:
			return nil, fmt.Errorf("blockadt: WithSeed conflicts with WithOracleInstance (the injected oracle fixes its tape seed)")
		case s.n != 0:
			return nil, fmt.Errorf("blockadt: WithN conflicts with WithOracleInstance (the merit count comes from the injected oracle)")
		}
	}
	if orc == nil {
		oracleName := s.oracle
		if oracleName == "" {
			oracleName = "frugal"
			if spec.PoW() {
				oracleName = "prodigal"
			}
		}
		ospec, err := LookupOracle(oracleName)
		if err != nil {
			return nil, err
		}
		merits := s.merits
		if len(merits) == 0 {
			n := s.n
			if n == 0 {
				n = 1
			}
			merits = make([]float64, n)
			for i := range merits {
				merits[i] = 1
			}
		}
		orc = ospec.New(OracleConfig{K: 1, Merits: merits, Seed: s.seed})
	}

	selectorName := s.selector
	if selectorName == "" {
		selectorName = spec.Selector.Name()
	}
	sel, err := NewSelector(selectorName)
	if err != nil {
		return nil, err
	}

	depth := s.finalityDepth
	if depth <= 0 {
		depth = 6
	}
	return &Instance{
		spec:   spec,
		bc:     core.New(core.Config{Oracle: orc, Selector: sel}),
		gadget: finality.New(depth, sel),
	}, nil
}

// Name implements System.
func (in *Instance) Name() string { return in.spec.Name }

// Refinement implements System.
func (in *Instance) Refinement() string { return in.spec.Refinement }

// Append implements System.
func (in *Instance) Append(proc ProcID, b Block) (bool, error) {
	ok, err := in.bc.Append(proc, b)
	if err != nil {
		return ok, fmt.Errorf("blockadt: append %s: %w", b.ID, err)
	}
	return ok, nil
}

// Read implements System.
func (in *Instance) Read(proc ProcID) Chain { return in.bc.Read(proc) }

// History implements System.
func (in *Instance) History() *History { return in.bc.History() }

// Finality implements System.
func (in *Instance) Finality() (HistoryChain, error) {
	return in.gadget.Observe(in.bc.Tree())
}

// FinalityDepth returns the gadget's configured depth d.
func (in *Instance) FinalityDepth() int { return in.gadget.Depth() }

// Oracle returns the oracle Θ the instance was refined with.
func (in *Instance) Oracle() *Oracle { return in.bc.Oracle() }

// Selector returns the selection function f.
func (in *Instance) Selector() Selector { return in.bc.Selector() }

// Tree returns a snapshot copy of the current BlockTree.
func (in *Instance) Tree() *Tree { return in.bc.Tree() }
