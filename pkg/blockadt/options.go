package blockadt

import "fmt"

// settings accumulates the functional options of New and Simulate.
type settings struct {
	oracle         string
	oracleInstance *Oracle
	selector       string
	link           string
	topology       string
	seed           uint64
	n              int
	writers        int
	blocks         int
	alpha          float64
	merits         []float64
	finalityDepth  int
}

// Option customizes New, Simulate and SimulateAdversary. Each option
// documents which entry points it applies to; passing an option to an
// entry point outside its scope is an error — the façade fails loudly
// rather than silently ignoring a knob (a WithSelector passed to Simulate
// would otherwise look honored while the simulator used its own rule).
// Unset options fall back to the oracle and selector the system's row
// implies and the repository-wide simulation defaults.
//
// Zero values are the "unset" sentinel throughout (the convention the
// whole repository uses): WithSeed(0), WithBlocks(0) or WithAlpha(0) are
// indistinguishable from omitting the option and select the default, and
// only non-zero values participate in the scope checks above.
type Option func(*settings)

// WithOracle selects a registered oracle family by name (e.g. "prodigal",
// "frugal"), overriding the system's default. Applies to New.
func WithOracle(name string) Option { return func(s *settings) { s.oracle = name } }

// WithOracleInstance injects an already-constructed oracle, bypassing the
// registry — useful when the caller wants to inspect the oracle's state
// after the run. Applies to New.
func WithOracleInstance(o *Oracle) Option { return func(s *settings) { s.oracleInstance = o } }

// WithSelector selects a registered selection function f by name (e.g.
// "longest", "heaviest", "ghost", "single"). Applies to New.
func WithSelector(name string) Option { return func(s *settings) { s.selector = name } }

// WithLink selects a registered communication model by name ("sync",
// "async"). Applies to Simulate and SimulateAdversary; a live New
// instance is a shared-memory object with no network.
func WithLink(name string) Option { return func(s *settings) { s.link = name } }

// WithTopology selects a registered dissemination topology by name
// ("complete", "gossip3", "clustered2"). Applies to Simulate;
// SimulateAdversary rejects non-default topologies (adversary models
// assume complete-graph broadcast), and a live New instance has no
// network.
func WithTopology(name string) Option { return func(s *settings) { s.topology = name } }

// WithSeed sets the seed driving all pseudorandomness. Applies to every
// entry point.
func WithSeed(seed uint64) Option { return func(s *settings) { s.seed = seed } }

// WithN sets the number of processes |V|. Applies to every entry point.
func WithN(n int) Option { return func(s *settings) { s.n = n } }

// WithWriters bounds the appending subset |M| ≤ |V| (0 = permissionless).
// Applies to Simulate and SimulateAdversary.
func WithWriters(m int) Option { return func(s *settings) { s.writers = m } }

// WithBlocks sets the target committed chain length. Applies to Simulate
// and SimulateAdversary.
func WithBlocks(b int) Option { return func(s *settings) { s.blocks = b } }

// WithAlpha sets the adversary's merit share. Applies to
// SimulateAdversary.
func WithAlpha(alpha float64) Option { return func(s *settings) { s.alpha = alpha } }

// WithMerits sets per-process token probabilities (the paper's merit
// parameter αᵢ, each in [0,1]), overriding the uniform default. Applies to New and
// Simulate; Simulate accepts it only for merit-aware (PoW) systems and
// requires one entry per process — committee systems grant
// deterministically, and a silently ignored merit vector would fake a
// fairness result.
func WithMerits(merits ...float64) Option {
	return func(s *settings) { s.merits = append([]float64(nil), merits...) }
}

// WithFinalityDepth sets the depth-d finality gadget a live instance's
// Finality() uses (default 6). Applies to New.
func WithFinalityDepth(d int) Option { return func(s *settings) { s.finalityDepth = d } }

func applyOptions(opts []Option) settings {
	var s settings
	for _, o := range opts {
		o(&s)
	}
	return s
}

// instanceOnlyErr reports the first New-scoped option that was passed to
// the named simulation entry point.
func (s settings) instanceOnlyErr(entry string) error {
	switch {
	case s.oracle != "":
		return fmt.Errorf("blockadt: WithOracle applies to New, not %s", entry)
	case s.oracleInstance != nil:
		return fmt.Errorf("blockadt: WithOracleInstance applies to New, not %s", entry)
	case s.selector != "":
		return fmt.Errorf("blockadt: WithSelector applies to New, not %s", entry)
	case s.finalityDepth != 0:
		return fmt.Errorf("blockadt: WithFinalityDepth applies to New, not %s", entry)
	}
	return nil
}

// simulationOnlyErr reports the first Simulate-scoped option that was
// passed to New.
func (s settings) simulationOnlyErr() error {
	switch {
	case s.link != "":
		return fmt.Errorf("blockadt: WithLink applies to Simulate, not New (a live instance has no network)")
	case s.topology != "":
		return fmt.Errorf("blockadt: WithTopology applies to Simulate, not New (a live instance has no network)")
	case s.blocks != 0:
		return fmt.Errorf("blockadt: WithBlocks applies to Simulate, not New (a live instance grows by Append)")
	case s.writers != 0:
		return fmt.Errorf("blockadt: WithWriters applies to Simulate, not New")
	case s.alpha != 0:
		return fmt.Errorf("blockadt: WithAlpha applies to SimulateAdversary, not New")
	}
	return nil
}

// linkName is the WithLink request, defaulting to the synchronous
// Table 1 links.
func (s settings) linkName() string {
	if s.link == "" {
		return LinkSync
	}
	return s.link
}

// simParams assembles the chains-level parameters from the options.
func (s settings) simParams() SimParams {
	return SimParams{
		N:            s.n,
		Writers:      s.writers,
		TargetBlocks: s.blocks,
		Seed:         s.seed,
		Merits:       s.merits,
	}
}
