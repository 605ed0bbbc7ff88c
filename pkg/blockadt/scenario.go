package blockadt

import (
	"fmt"
	"time"

	"blockadt/internal/chains"
	"blockadt/internal/fairness"
	"blockadt/internal/metrics"
	"blockadt/internal/parallel"
	"blockadt/internal/prng"
)

// Scenario is one fully resolved configuration of a scenario matrix:
// a (system, link, adversary, topology, n, blocks, seed) point.
type Scenario struct {
	System    string `json:"system"`
	Link      string `json:"link"`
	Adversary string `json:"adversary"`
	// LinkParams is the link model's canonical parameter string
	// (LinkSpec.Params), stamped during matrix expansion. Empty for the
	// parameterless models, so pre-existing scenario keys — and the
	// seeds derived from them — are unchanged.
	LinkParams string `json:"linkParams,omitempty"`
	// Topology and TopoParams name the dissemination topology and its
	// canonical parameter string. Both stay empty for the default
	// complete graph, so pre-existing scenarios — their JSON, keys and
	// derived seeds — are byte-for-byte unchanged.
	Topology   string `json:"topology,omitempty"`
	TopoParams string `json:"topoParams,omitempty"`
	// Alpha is the adversary's merit share (adversarial runs only).
	Alpha float64 `json:"alpha,omitempty"`
	N     int     `json:"n"`
	// Blocks is the target committed chain length.
	Blocks int `json:"blocks"`
	// SeedIndex is the scenario's position along the matrix's seed
	// dimension; Seed is the stream actually used, derived from the
	// root seed and the canonical key (DeriveSeed).
	SeedIndex int    `json:"seedIndex"`
	Seed      uint64 `json:"seed"`
}

// Key returns the canonical identity of the scenario — everything that
// distinguishes it within a matrix except the derived seed itself. Link
// parameters — and the topology, when non-default — join the key only
// when present, so the parameterless complete-graph scenarios keep their
// historical keys (and derived seeds) byte for byte.
func (c Scenario) Key() string {
	key := fmt.Sprintf("%s|%s|%s|a=%.4f|n=%d|b=%d|s=%d",
		c.System, c.Link, c.Adversary, c.Alpha, c.N, c.Blocks, c.SeedIndex)
	if c.LinkParams != "" {
		key += "|lp=" + c.LinkParams
	}
	if c.Topology != "" {
		key += "|topo=" + c.Topology
		if c.TopoParams != "" {
			key += "|tp=" + c.TopoParams
		}
	}
	return key
}

// DeriveSeed returns the scenario's independent prng stream:
// prng.Mix(root, hash(Key)). Two scenarios that differ in any matrix
// coordinate get unrelated streams; the same scenario under the same
// root always gets the same stream, regardless of where it sits in the
// expansion order or which worker runs it.
func (c Scenario) DeriveSeed(root uint64) uint64 {
	return prng.Mix(root, hashString(c.Key()))
}

// hashString folds a string into a 64-bit value with the repository's
// stateless mixer (an FNV-style byte fold finished by prng.Mix, so the
// result is well distributed even for short keys).
func hashString(s string) uint64 {
	const prime = 0x100000001B3
	h := uint64(0xCBF29CE484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return prng.Mix(h, uint64(len(s)))
}

// Matrix spans a scenario cross product. Zero-valued dimensions fall back
// to defaults (every registered system, synchronous links, no adversary,
// the complete graph, n=8, one seed).
type Matrix struct {
	// Systems are registered system names; empty = every registered
	// system in registration order (for the built-ins, Table 1 order).
	Systems []string `json:"systems,omitempty"`
	// Links are registered link-model names; empty = {sync}.
	Links []string `json:"links,omitempty"`
	// Adversaries are registered adversary names; empty = {none}.
	Adversaries []string `json:"adversaries,omitempty"`
	// Topologies are registered topology names; empty = {complete}.
	Topologies []string `json:"topologies,omitempty"`
	// Ns are process counts; empty = {8}.
	Ns []int `json:"ns,omitempty"`
	// Seeds is the number of seed indices per point; 0 = 1.
	Seeds int `json:"seeds,omitempty"`
	// RootSeed drives every derived stream. Unlike the other knobs, 0
	// is NOT remapped: it is a valid root and is used as-is, so an
	// explicit `-seed 0` sweep is distinct from the CLI's default 42.
	RootSeed uint64 `json:"rootSeed"`
	// TargetBlocks is the committed-chain target per run; 0 = 30.
	TargetBlocks int `json:"targetBlocks,omitempty"`
	// Alpha is the adversary's merit share; 0 = 0.34 (a zero-merit
	// adversary is degenerate, so zero means unset here).
	Alpha float64 `json:"alpha,omitempty"`
	// Metrics names the registered collectors to run per scenario;
	// empty disables collection (the zero-overhead default). Collectors
	// do not influence the simulation, so a scenario's identity (Key,
	// derived seed) is independent of them — only the Result rows gain
	// a metrics object.
	Metrics []string `json:"metrics,omitempty"`
	// ShardIndex/ShardCount restrict the expansion to one deterministic
	// partition of the cross product (set them through Shard). A
	// scenario's shard is a pure function of its canonical key, so the
	// partition is independent of dimension ordering and expansion
	// order: shards are disjoint, their union is the full matrix, and a
	// scenario never migrates between shards when the matrix's lists
	// are permuted. ShardCount 0 (or 1) means unsharded.
	ShardIndex int `json:"shardIndex,omitempty"`
	ShardCount int `json:"shardCount,omitempty"`
}

// Shard returns a copy of the matrix restricted to the index'th of
// count deterministic partitions (0 ≤ index < count). Sharded sweeps
// run disjoint scenario subsets whose union is exactly the unsharded
// expansion — Merge reassembles their reports into the canonical whole.
func (m Matrix) Shard(index, count int) (Matrix, error) {
	if count < 1 {
		return Matrix{}, fmt.Errorf("blockadt: shard count must be >= 1, got %d", count)
	}
	if index < 0 || index >= count {
		return Matrix{}, fmt.Errorf("blockadt: shard index %d out of range [0,%d)", index, count)
	}
	m.ShardIndex, m.ShardCount = index, count
	return m, nil
}

// checkN rejects a negative process count, which no simulator can
// build a network for. Zero keeps its documented meaning: the
// simulators' default of 8 processes.
func checkN(n int) error {
	if n < 0 {
		return fmt.Errorf("blockadt: process count n must be >= 0 (0 selects the default), got %d", n)
	}
	return nil
}

// shard reports which of count partitions the scenario belongs to: a
// hash of the canonical key, deliberately domain-separated from the
// seed-derivation hash so shard membership and prng streams stay
// uncorrelated.
func (c Scenario) shard(count int) int {
	return int(hashString("shard|"+c.Key()) % uint64(count))
}

// Table1 returns the matrix regenerating Table 1: every registered
// system, one honest synchronous run each.
func Table1(n, blocks int, seed uint64) Matrix {
	return Matrix{Ns: []int{n}, TargetBlocks: blocks, RootSeed: seed}
}

func (m Matrix) withDefaults() Matrix {
	if len(m.Systems) == 0 {
		m.Systems = SystemNames()
	}
	if len(m.Links) == 0 {
		m.Links = []string{LinkSync}
	}
	if len(m.Adversaries) == 0 {
		m.Adversaries = []string{AdvNone}
	}
	if len(m.Topologies) == 0 {
		m.Topologies = []string{TopoComplete}
	}
	if len(m.Ns) == 0 {
		m.Ns = []int{8}
	}
	if m.Seeds <= 0 {
		m.Seeds = 1
	}
	if m.TargetBlocks <= 0 {
		m.TargetBlocks = 30
	}
	if m.Alpha == 0 {
		m.Alpha = 0.34
	}
	return m
}

// Configs expands the matrix into its resolved scenarios, in
// deterministic (systems → links → adversaries → topologies → ns →
// seeds) order, pruning combinations no registered simulator implements.
// It errors on unregistered systems, links, adversaries or topologies so
// a typo fails loudly instead of silently sweeping nothing, and on a
// negative process count.
func (m Matrix) Configs() ([]Scenario, error) {
	m = m.withDefaults()
	for _, name := range m.Systems {
		if _, err := LookupSystem(name); err != nil {
			return nil, err
		}
	}
	// withDefaults remapped 0 to 0.34, so anything outside (0,1) here is
	// caller input — reject it before it builds degenerate merit tapes.
	if m.Alpha <= 0 || m.Alpha >= 1 {
		return nil, fmt.Errorf("blockadt: adversary merit share must be in (0,1), got %v", m.Alpha)
	}
	for _, n := range m.Ns {
		if err := checkN(n); err != nil {
			return nil, err
		}
	}
	// Metrics do not expand into scenarios, but a typo in the list must
	// fail here like one in any other dimension.
	if _, err := m.metricSpecs(); err != nil {
		return nil, err
	}
	if m.ShardCount < 0 {
		return nil, fmt.Errorf("blockadt: shard count must be >= 1, got %d", m.ShardCount)
	}
	if m.ShardCount > 0 && (m.ShardIndex < 0 || m.ShardIndex >= m.ShardCount) {
		return nil, fmt.Errorf("blockadt: shard index %d out of range [0,%d)", m.ShardIndex, m.ShardCount)
	}
	var out []Scenario
	for _, sys := range m.Systems {
		for _, link := range m.Links {
			lspec, err := LookupLink(link)
			if err != nil {
				return nil, err
			}
			if !lspec.supportsSystem(sys) {
				continue
			}
			for _, adv := range m.Adversaries {
				aspec, err := LookupAdversary(adv)
				if err != nil {
					return nil, err
				}
				if aspec.Plan != nil && !aspec.supportsSystem(sys, link) {
					continue
				}
				for _, topo := range m.Topologies {
					tspec, err := LookupTopology(topo)
					if err != nil {
						return nil, err
					}
					if tspec.Plan != nil && !tspec.supportsScenario(sys, link, adv) {
						continue
					}
					for _, n := range m.Ns {
						for s := 0; s < m.Seeds; s++ {
							cfg := Scenario{
								System: sys, Link: link, Adversary: adv,
								LinkParams: lspec.Params,
								N:          n, Blocks: m.TargetBlocks, SeedIndex: s,
							}
							if aspec.Plan != nil {
								cfg.Alpha = m.Alpha
							}
							if tspec.Plan != nil {
								// The default complete graph stays out of
								// the scenario entirely: its keys, JSON
								// and derived seeds predate the topology
								// dimension.
								cfg.Topology = topo
								cfg.TopoParams = tspec.Params
							}
							if m.ShardCount > 1 && cfg.shard(m.ShardCount) != m.ShardIndex {
								continue
							}
							cfg.Seed = cfg.DeriveSeed(m.RootSeed)
							out = append(out, cfg)
						}
					}
				}
			}
		}
	}
	return out, nil
}

// metricSpecs resolves the matrix's metric names against the registry.
func (m Matrix) metricSpecs() ([]MetricSpec, error) {
	specs := make([]MetricSpec, 0, len(m.Metrics))
	for _, name := range m.Metrics {
		spec, err := LookupMetric(name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// Result is the structured outcome of one scenario.
type Result struct {
	Config Scenario `json:"config"`
	// Refinement is the simulator's claimed refinement (for honest
	// Table 1 runs, the paper's row).
	Refinement string `json:"refinement"`
	// Expected and Level are the anticipated vs measured consistency
	// levels; Match reports their agreement.
	Expected string `json:"expected"`
	Level    string `json:"level"`
	Match    bool   `json:"match"`
	// Blocks / Forks / Ticks / Delivered / Dropped summarize the run.
	Blocks    int   `json:"blocks"`
	Forks     int   `json:"forks"`
	Ticks     int64 `json:"ticks"`
	Delivered int   `json:"delivered"`
	Dropped   int   `json:"dropped"`
	// MaxReorg is the deepest rollback observed between consecutive
	// reads of any single process; FinalityDepth = MaxReorg+1 is the
	// smallest depth-d finality gadget that would have been safe on
	// this run.
	MaxReorg      int `json:"maxReorg"`
	FinalityDepth int `json:"finalityDepth"`
	// FairnessTVD is the total variation distance between realized and
	// entitled block shares (chain quality for adversarial runs).
	FairnessTVD float64 `json:"fairnessTVD"`
	// AdversaryShare is the adversary's realized main-chain share
	// (adversarial runs only).
	AdversaryShare float64 `json:"adversaryShare,omitempty"`
	// Metrics holds the values of the collectors the matrix requested
	// (Matrix.Metrics), keyed by metric name; nil when collection is
	// disabled, and inapplicable collectors are absent rather than zero.
	// Every value is a pure function of the run, so metrics-enabled
	// sweep JSON stays byte-identical at any parallelism.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// WallNS is the measured wall-clock cost of the run. It is
	// excluded from the canonical JSON: it is the one field that is
	// not deterministic.
	WallNS int64 `json:"-"`
}

// Report is a completed sweep.
type Report struct {
	RootSeed uint64   `json:"rootSeed"`
	Results  []Result `json:"results"`
	// Total / Matched aggregate the verdicts; Ticks totals virtual
	// time across scenarios.
	Total   int   `json:"total"`
	Matched int   `json:"matched"`
	Ticks   int64 `json:"ticks"`
	// WallNS is the sweep's wall-clock time (excluded from canonical
	// JSON, like Result.WallNS).
	WallNS int64 `json:"-"`
	// Parallelism is the worker count actually used. Excluded from
	// the canonical JSON so sweeps at different parallelism remain
	// byte-comparable.
	Parallelism int `json:"-"`
}

// Run expands the matrix and executes every scenario across a bounded
// pool of the given parallelism (<1 selects NumCPU). Results are in
// matrix-expansion order regardless of scheduling. With WithStore,
// cached scenarios are served from the run store without simulating and
// misses are computed and persisted — the report is byte-identical
// either way.
func Run(m Matrix, parallelism int, opts ...RunOption) (*Report, error) {
	configs, err := m.Configs()
	if err != nil {
		return nil, err
	}
	specs, err := m.metricSpecs()
	if err != nil {
		return nil, err
	}
	rcfg := applyRunOptions(opts)
	runner, err := newSweepRunner(rcfg, m, configs, specs)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	results := parallel.Map(configs, parallelism, func(i int, cfg Scenario) Result {
		return runner.exec(nil, i, cfg)
	})
	if err := runner.err(); err != nil {
		return nil, err
	}
	if err := runner.finish(rcfg.storeGC, m); err != nil {
		return nil, err
	}
	rep := &Report{
		RootSeed:    m.RootSeed,
		Results:     results,
		Total:       len(results),
		WallNS:      time.Since(start).Nanoseconds(),
		Parallelism: parallel.Workers(parallelism),
	}
	for _, r := range results {
		if r.Match {
			rep.Matched++
		}
		rep.Ticks += r.Ticks
	}
	return rep, nil
}

// RunScenario executes one fully resolved scenario — simulate, classify,
// measure — dispatching through the system/link/adversary registries. It
// applies the same validation Matrix.Configs does while expanding: a name
// no registry knows, a combination no simulator supports, a negative
// process count or an out-of-range adversary merit share is an error
// instead of a silently wrong run. Scenarios expanded by Matrix.Configs
// are always valid.
func RunScenario(cfg Scenario) (Result, error) {
	if err := checkN(cfg.N); err != nil {
		return Result{}, err
	}
	if _, err := LookupSystem(cfg.System); err != nil {
		return Result{}, err
	}
	lspec, err := LookupLink(cfg.Link)
	if err != nil {
		return Result{}, err
	}
	if !lspec.supportsSystem(cfg.System) {
		return Result{}, fmt.Errorf("blockadt: system %q does not implement link model %q", cfg.System, cfg.Link)
	}
	aspec, err := LookupAdversary(cfg.Adversary)
	if err != nil {
		return Result{}, err
	}
	if aspec.Plan != nil {
		if !aspec.supportsSystem(cfg.System, cfg.Link) {
			return Result{}, fmt.Errorf("blockadt: system %q does not implement adversary %q under link %q", cfg.System, cfg.Adversary, cfg.Link)
		}
		if cfg.Alpha <= 0 || cfg.Alpha >= 1 {
			return Result{}, fmt.Errorf("blockadt: adversary merit share must be in (0,1), got %v", cfg.Alpha)
		}
	}
	if cfg.Topology != "" {
		tspec, err := LookupTopology(cfg.Topology)
		if err != nil {
			return Result{}, err
		}
		if tspec.Plan != nil && !tspec.supportsScenario(cfg.System, cfg.Link, cfg.Adversary) {
			return Result{}, fmt.Errorf("blockadt: system %q does not implement topology %q under link %q and adversary %q", cfg.System, cfg.Topology, cfg.Link, cfg.Adversary)
		}
	}
	return runScenario(cfg, nil), nil
}

// runScenario is RunScenario's engine-side core. It assumes the scenario
// was validated (Matrix.Configs and RunScenario both do): an unknown
// system name panics, and an unknown link, adversary or topology name
// degrades to the honest synchronous path — neither can reach here
// through the exported entry points. mspecs are the resolved metric
// collectors to run over the result (nil disables collection).
func runScenario(cfg Scenario, mspecs []MetricSpec) Result {
	scenarioRuns.Add(1)
	p := SimParams{N: cfg.N, TargetBlocks: cfg.Blocks, Seed: cfg.Seed}
	start := time.Now()

	var (
		expected    Level
		out         Result
		adversarial bool
	)
	spec, err := LookupSystem(cfg.System)
	if err != nil {
		// Configs() and RunScenario validated the name; an error here
		// is a bug.
		panic(err)
	}
	aspec, aerr := LookupAdversary(cfg.Adversary)
	lspec, lerr := LookupLink(cfg.Link)
	ex := Execution{System: specSystem{spec}, Params: ExecutionParams{Params: p}}
	switch {
	case aerr == nil && aspec.Plan != nil:
		ex.Params.Alpha = cfg.Alpha
		aspec.Plan(&ex)
		adversarial = true
		expected = spec.Expected
		if aspec.Expected != nil {
			expected = aspec.Expected(cfg.System, cfg.Link, spec.Expected)
		}
	case lerr == nil && lspec.Plan != nil:
		lspec.Plan(&ex)
		expected = linkExpected(lspec, cfg.System, spec.Expected)
	default:
		expected = spec.Expected
		if lerr == nil {
			// A link model registered without its own plan may still
			// adjust the predicted level (LinkSpec.Expected).
			expected = linkExpected(lspec, cfg.System, spec.Expected)
		}
	}
	if cfg.Topology != "" {
		if tspec, terr := LookupTopology(cfg.Topology); terr == nil && tspec.Plan != nil {
			tspec.Plan(&ex)
			if tspec.Expected != nil {
				expected = tspec.Expected(cfg.System, cfg.Link, expected)
			}
		}
	}
	res, err := chains.Execute(ex)
	if err != nil {
		// Configs() and RunScenario validated the composition; an
		// executor rejection here is a registration bug (e.g. a custom
		// link spec whose Supports accepts a system its plan cannot
		// run).
		panic(convertExecuteErr(err))
	}
	if adversarial {
		stats := adversaryOutcome(aspec, cfg.System, cfg.Link, p, cfg.Alpha, spec.Expected, res)
		out.AdversaryShare = stats.AdversaryShare
		out.FairnessTVD = stats.FairnessTVD
	} else {
		out.FairnessTVD = fairness.Analyze(res.History, equalMerits(cfg.N)).TVD
	}

	cls := ClassifyRun(p, res)
	out.Config = cfg
	out.Refinement = res.Refinement
	out.Expected = expected.String()
	out.Level = cls.Level.String()
	out.Match = cls.Level == expected
	out.Blocks = res.Blocks
	out.Forks = res.Forks
	out.Ticks = res.Ticks
	out.Delivered = res.Delivered
	out.Dropped = res.Dropped
	out.MaxReorg = metrics.MaxReorg(res.History)
	out.FinalityDepth = out.MaxReorg + 1
	if len(mspecs) > 0 {
		out.Metrics = computeMetrics(mspecs, metricRun(cfg, res, out, adversarial))
	}
	out.WallNS = time.Since(start).Nanoseconds()
	return out
}

// metricRun assembles the collector snapshot from a completed scenario.
func metricRun(cfg Scenario, res SimResult, out Result, adversarial bool) MetricRun {
	run := newMetricRun(SimParams{N: cfg.N, TargetBlocks: cfg.Blocks}, res)
	run.FairnessTVD = out.FairnessTVD
	run.Adversarial = adversarial
	run.AdversaryShare = out.AdversaryShare
	run.AdversaryMerit = cfg.Alpha
	return run
}

// newMetricRun is the one SimResult → MetricRun field mapping, shared by
// every entry point that collects metrics (runScenario, Simulate,
// SimulateAdversary). The params are normalized the way the simulators
// normalize them (chains.Params.WithDefaults), so the snapshot describes
// the run that actually happened — an N=0 request ran 8 processes.
// Callers fill the fairness/adversary fields the result type carries.
func newMetricRun(p SimParams, res SimResult) MetricRun {
	p = p.WithDefaults()
	return MetricRun{
		N:             p.N,
		TargetBlocks:  p.TargetBlocks,
		Blocks:        res.Blocks,
		Forks:         res.Forks,
		Ticks:         res.Ticks,
		Delivered:     res.Delivered,
		Dropped:       res.Dropped,
		Bytes:         res.Bytes,
		PartitionHeal: res.PartitionHeal,
		History:       res.History,
	}
}

// computeMetrics runs the collectors over the snapshot, skipping
// inapplicable ones.
func computeMetrics(specs []MetricSpec, r MetricRun) map[string]float64 {
	out := make(map[string]float64, len(specs))
	for _, spec := range specs {
		if v, ok := spec.Compute(r); ok {
			out[spec.Name] = v
		}
	}
	return out
}

// Parallelism reports the worker count a requested parallelism resolves
// to (<1 selects NumCPU) — the value Report.Parallelism records.
func Parallelism(requested int) int { return parallel.Workers(requested) }

// equalMerits is the uniform entitlement used for honest runs. It
// mirrors the simulators' process-count default (N = 0 → 8) so the
// entitlement vector always lines up with the processes that actually
// ran.
func equalMerits(n int) []float64 {
	if n <= 0 {
		n = 8
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}
