package blockadt

import (
	"context"
	"fmt"
	"strconv"
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
	return string(c.appendKey(make([]byte, 0, 64)))
}

// appendKey appends Key to b. It is the one key builder: Key, the seed
// and shard hashes of matrix expansion and the run-store keys all go
// through it, so none of them formats through fmt. The layout is
// "sys|link|adv|a=%.4f|n=%d|b=%d|s=%d" plus the optional "|lp=",
// "|topo=" and "|tp=" parts.
func (c Scenario) appendKey(b []byte) []byte {
	b = append(b, c.System...)
	b = append(b, '|')
	b = append(b, c.Link...)
	b = append(b, '|')
	b = append(b, c.Adversary...)
	b = append(b, "|a="...)
	b = strconv.AppendFloat(b, c.Alpha, 'f', 4, 64)
	b = append(b, "|n="...)
	b = strconv.AppendInt(b, int64(c.N), 10)
	b = append(b, "|b="...)
	b = strconv.AppendInt(b, int64(c.Blocks), 10)
	b = append(b, "|s="...)
	b = strconv.AppendInt(b, int64(c.SeedIndex), 10)
	if c.LinkParams != "" {
		b = append(b, "|lp="...)
		b = append(b, c.LinkParams...)
	}
	if c.Topology != "" {
		b = append(b, "|topo="...)
		b = append(b, c.Topology...)
		if c.TopoParams != "" {
			b = append(b, "|tp="...)
			b = append(b, c.TopoParams...)
		}
	}
	return b
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
func hashString[S string | []byte](s S) uint64 {
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
// expansion — a store holding every shard's results serves the whole
// matrix (docs/runstore.md).
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

// shardPrefix domain-separates the shard hash from the seed-derivation
// hash, so shard membership and prng streams stay uncorrelated.
const shardPrefix = "shard|"

// shardOf reports which of count partitions a scenario belongs to,
// given shardPrefix followed by its canonical key.
func shardOf(prefixedKey []byte, count int) int {
	return int(hashString(prefixedKey) % uint64(count))
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

// maxScenarios bounds a matrix's unpruned cross product. Configs holds
// every scenario in memory (under 1 KB each), so the bound keeps one
// expansion near 50 MB; every matrix the repository sweeps is far below
// it, and a request body of a few bytes cannot ask for billions.
const maxScenarios = 1 << 16

// Configs expands the matrix into its resolved scenarios, in
// deterministic (systems → links → adversaries → topologies → ns →
// seeds) order, pruning combinations no registered simulator implements.
// It errors on unregistered systems, links, adversaries or topologies so
// a typo fails loudly instead of silently sweeping nothing, on a
// negative process count, and on a cross product above maxScenarios
// (counted before pruning).
func (m Matrix) Configs() ([]Scenario, error) {
	configs, _, err := m.expand()
	return configs, err
}

// expand is Configs, also returning the resolved metric collectors: the
// metric list is validated here like every other dimension.
func (m Matrix) expand() ([]Scenario, []MetricSpec, error) {
	m = m.withDefaults()
	systems, err := lookupAll(m.Systems, LookupSystem)
	if err != nil {
		return nil, nil, err
	}
	// withDefaults remapped 0 to 0.34, so anything outside (0,1) here is
	// caller input — reject it before it builds degenerate merit tapes.
	if m.Alpha <= 0 || m.Alpha >= 1 {
		return nil, nil, fmt.Errorf("blockadt: adversary merit share must be in (0,1), got %v", m.Alpha)
	}
	for _, n := range m.Ns {
		if err := checkN(n); err != nil {
			return nil, nil, err
		}
	}
	// Metrics do not expand into scenarios, but a typo in the list must
	// fail here like one in any other dimension.
	specs, err := m.metricSpecs()
	if err != nil {
		return nil, nil, err
	}
	if m.ShardCount < 0 {
		return nil, nil, fmt.Errorf("blockadt: shard count must be >= 1, got %d", m.ShardCount)
	}
	if m.ShardCount > 0 && (m.ShardIndex < 0 || m.ShardIndex >= m.ShardCount) {
		return nil, nil, fmt.Errorf("blockadt: shard index %d out of range [0,%d)", m.ShardIndex, m.ShardCount)
	}
	lspecs, err := lookupAll(m.Links, LookupLink)
	if err != nil {
		return nil, nil, err
	}
	aspecs, err := lookupAll(m.Adversaries, LookupAdversary)
	if err != nil {
		return nil, nil, err
	}
	tspecs, err := lookupAll(m.Topologies, LookupTopology)
	if err != nil {
		return nil, nil, err
	}
	// Each factor and partial product stays at most maxScenarios before
	// the next multiplication, so the product cannot overflow.
	product := 1
	for _, d := range []int{len(m.Systems), len(lspecs), len(aspecs), len(tspecs), len(m.Ns), m.Seeds} {
		if d > maxScenarios || product*d > maxScenarios {
			return nil, nil, fmt.Errorf("blockadt: matrix spans more than %d scenarios (%d systems × %d links × %d adversaries × %d topologies × %d ns × %d seeds)",
				maxScenarios, len(m.Systems), len(lspecs), len(aspecs), len(tspecs), len(m.Ns), m.Seeds)
		}
		product *= d
	}
	var out []Scenario
	var kb []byte
	for _, sys := range systems {
		for _, lspec := range lspecs {
			for _, aspec := range aspecs {
				for _, tspec := range tspecs {
					if !admits(sys.SimSystem, lspec, aspec, tspec) {
						continue
					}
					for _, n := range m.Ns {
						for s := 0; s < m.Seeds; s++ {
							cfg := Scenario{
								System: sys.Name, Link: lspec.Name, Adversary: aspec.Name,
								LinkParams: lspec.Params,
								N:          n, Blocks: m.TargetBlocks, SeedIndex: s,
							}
							if aspec.Plan != nil {
								cfg.Alpha = m.Alpha
							}
							if !tspec.Topology.IsDefault() {
								// The default complete graph stays out of
								// the scenario entirely: its keys, JSON
								// and derived seeds predate the topology
								// dimension.
								cfg.Topology = tspec.Name
								cfg.TopoParams = tspec.Params
							}
							// One key build serves both hashes: the
							// shard hash covers the prefix, the seed
							// hash the key after it.
							kb = cfg.appendKey(append(kb[:0], shardPrefix...))
							if m.ShardCount > 1 && shardOf(kb, m.ShardCount) != m.ShardIndex {
								continue
							}
							cfg.Seed = prng.Mix(m.RootSeed, hashString(kb[len(shardPrefix):]))
							out = append(out, cfg)
						}
					}
				}
			}
		}
	}
	return out, specs, nil
}

// lookupAll resolves every name of one matrix dimension against its
// registry, failing on the first miss.
func lookupAll[T any](names []string, lookup func(string) (T, error)) ([]T, error) {
	out := make([]T, len(names))
	for i, name := range names {
		spec, err := lookup(name)
		if err != nil {
			return nil, err
		}
		out[i] = spec
	}
	return out, nil
}

// metricSpecs resolves the matrix's metric names against the registry.
func (m Matrix) metricSpecs() ([]MetricSpec, error) {
	return lookupAll(m.Metrics, LookupMetric)
}

// Result is the structured outcome of one scenario.
type Result struct {
	Config Scenario `json:"config"`
	// Refinement is the simulator's claimed refinement (for honest
	// Table 1 runs, the paper's row).
	Refinement string `json:"refinement"`
	// Expected is the level the theory guarantees the run
	// (expectedLevel) and Level the measured one; Match reports that
	// Level is at least as strong as Expected.
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
	// not deterministic. Because the run store keeps that JSON, a
	// Result served from the store has WallNS == 0, so WallNS != 0
	// marks a result computed in this process: simulated, or coalesced
	// onto a simulation.
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

// Run collects Stream's results into a report: every scenario of the
// matrix, executed across a bounded pool of the given parallelism (<1
// selects NumCPU), in matrix-expansion order regardless of scheduling.
// Like Stream, it stops at the first failed scenario and returns its
// error. With WithRunStore, cached scenarios are served from the run
// store without simulating and misses are computed and persisted — the
// report is byte-identical either way.
func Run(m Matrix, parallelism int, opts ...RunOption) (*Report, error) {
	start := time.Now()
	rep := &Report{RootSeed: m.RootSeed, Results: []Result{}, Parallelism: parallel.Workers(parallelism)}
	for r, err := range Stream(context.Background(), m, parallelism, opts...) {
		if err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, r)
		if r.Match {
			rep.Matched++
		}
		rep.Ticks += r.Ticks
	}
	rep.Total = len(rep.Results)
	rep.WallNS = time.Since(start).Nanoseconds()
	return rep, nil
}

// RunScenario executes one fully resolved scenario — simulate, classify,
// measure — dispatching through the system/link/adversary registries. It
// applies the same validation Matrix.Configs does while expanding: a name
// no registry knows, a combination no simulator supports, a negative
// process count or an out-of-range adversary merit share is an error
// instead of a silently wrong run, as is a negative block target.
// Scenarios expanded by Matrix.Configs are always valid.
func RunScenario(cfg Scenario) (Result, error) {
	return runScenario(cfg, nil)
}

// runScenario is RunScenario's engine-side core, shared with the sweep
// runner. compose resolves and validates the scenario, refusing what the
// executor cannot run before anything simulates. mspecs are the resolved
// metric collectors to run over the result (nil disables collection).
func runScenario(cfg Scenario, mspecs []MetricSpec) (Result, error) {
	start := time.Now()
	p := SimParams{N: cfg.N, TargetBlocks: cfg.Blocks, Seed: cfg.Seed}
	sc, aspec, err := compose(cfg.System, cfg.Link, cfg.Adversary, cfg.Topology, cfg.Alpha, p)
	if err != nil {
		return Result{}, err
	}
	scenarioRuns.Add(1)
	res, err := chains.Execute(sc)
	if err != nil {
		return Result{}, err
	}
	adversarial := aspec.Plan != nil
	out := Result{Config: cfg}
	if adversarial {
		stats := adversaryOutcome(aspec, p, cfg.Alpha, res)
		out.AdversaryShare = stats.AdversaryShare
		out.FairnessTVD = stats.FairnessTVD
	} else {
		out.FairnessTVD = fairness.Analyze(res.History, equalMerits(cfg.N)).TVD
	}

	opts := chains.Options(p, res.History)
	level := res.Classify(opts).Level
	expected := expectedLevel(sc.System.Expected, level, res.History, opts)
	out.Refinement = res.Refinement
	out.Expected = expected.String()
	out.Level = level.String()
	out.Match = level.AtLeast(expected)
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
	// Nothing reads the history past this point and it never leaves this
	// function, so its buffers go to the next scenario's recorder.
	res.History.Release()
	out.WallNS = time.Since(start).Nanoseconds()
	return out, nil
}

// expectedLevel is the one prediction rule of the engine. A run is held
// to its system's Table 1 level. Theorems 4.6 and 4.7 make Update
// Agreement and Light Reliable Communication (Definitions 4.3 and 4.4)
// necessary for BT Eventual Consistency, so a run that measures weaker
// than its level and breaks either property is held to none: the theory
// guarantees it nothing. The premise is checked only on runs that fall
// short, the only runs whose verdict it can change, and LRC first, the
// cheaper check and the one lossy runs fail.
func expectedLevel(table1, measured Level, h *History, opts CheckOptions) Level {
	if measured.AtLeast(table1) || LRC(h, opts).Satisfied && UpdateAgreement(h, opts).Satisfied {
		return table1
	}
	return LevelNone
}

// metricRun assembles the collector snapshot from a completed scenario.
// N and TargetBlocks are normalized the way the simulators normalize them
// (SimParams.WithDefaults), so the snapshot describes the run that
// actually happened — an N=0 request ran 8 processes.
func metricRun(cfg Scenario, res SimResult, out Result, adversarial bool) MetricRun {
	p := SimParams{N: cfg.N, TargetBlocks: cfg.Blocks}.WithDefaults()
	return MetricRun{
		N:              p.N,
		TargetBlocks:   p.TargetBlocks,
		Blocks:         res.Blocks,
		Forks:          res.Forks,
		Ticks:          res.Ticks,
		Delivered:      res.Delivered,
		Dropped:        res.Dropped,
		Bytes:          res.Bytes,
		PartitionHeal:  res.PartitionHeal,
		History:        res.History,
		FairnessTVD:    out.FairnessTVD,
		Adversarial:    adversarial,
		AdversaryShare: out.AdversaryShare,
		AdversaryMerit: cfg.Alpha,
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
// applies the simulators' process-count default (SimParams.WithDefaults)
// so the entitlement vector always lines up with the processes that
// actually ran.
func equalMerits(n int) []float64 {
	out := make([]float64, SimParams{N: n}.WithDefaults().N)
	for i := range out {
		out[i] = 1
	}
	return out
}
