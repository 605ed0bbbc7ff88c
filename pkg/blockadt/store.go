package blockadt

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"blockadt/internal/obs"
	"blockadt/internal/runstore"
)

// EngineVersion names the simulation semantics the run store caches
// under. It participates in every store key, so bumping it (required
// whenever a change makes any scenario's Result differ — new simulator
// behavior, a metric's formula, the classifier) invalidates every cached
// entry at once instead of silently serving results the current engine
// would no longer produce.
// v2: WeaklySynchronous honors the DLS pre-GST delivery bound (psync
// results shifted) and the link dimension gained lossy/partition/jitter.
// v3: the PoW harness drains the event queue to idle before its final
// convergence reads instead of running a fixed 64+16δ window, so Ticks now
// ends at the last real delivery (and heavy-tail stragglers are no longer
// read past) — Ticks-derived metrics shifted for every PoW scenario.
const EngineVersion = "btadt-engine-v3"

// RunOption customizes Run and Stream (the sweep engine's entry
// points), as Option customizes New/Simulate. The zero set of options
// reproduces the historical behavior exactly.
type RunOption func(*runConfig)

type runConfig struct {
	storeDir string
	storeGC  bool
	store    *RunStore
	flight   *Singleflight
	census   *Census
	tracers  []obs.Tracer
}

// WithStore backs the sweep with the content-addressed run store at
// dir (created if missing): scenarios whose key — a hash of {engine
// version, root seed, scenario coordinates, derived seed, metric set} —
// is already cached are served from disk without simulating, and misses
// are computed and persisted atomically. Because the store holds each
// scenario's canonical Result JSON, a cached sweep's report is
// byte-identical to a cold run's at any parallelism.
func WithStore(dir string) RunOption {
	return func(c *runConfig) { c.storeDir = dir }
}

// WithStoreGC garbage-collects the store after the sweep: every entry
// that is not part of this matrix's FULL (unsharded) expansion under the
// current engine version is deleted. Sharded sweeps therefore never
// collect sibling shards' entries. Only meaningful with WithStore.
func WithStoreGC() RunOption {
	return func(c *runConfig) { c.storeGC = true }
}

// WithRunStore backs the sweep with an already-open RunStore handle
// instead of opening the directory per call. A long-running service
// passes one shared handle through every Run/Stream so cache-hit/miss
// statistics accumulate process-wide and the index is loaded once.
// Takes precedence over WithStore when both are given.
func WithRunStore(s *RunStore) RunOption {
	return func(c *runConfig) { c.store = s }
}

// WithSingleflight coalesces concurrent executions of identical
// scenarios across every Run/Stream sharing the group: while one call is
// simulating a scenario, others wanting the same store key wait for its
// result instead of simulating again. See Singleflight.
func WithSingleflight(g *Singleflight) RunOption {
	return func(c *runConfig) { c.flight = g }
}

// WithCensus makes the sweep count, into c, how each scenario was
// satisfied: served from the store, simulated by this call, or coalesced
// onto another call's in-flight simulation. Read the census after the
// sweep completes.
func WithCensus(c *Census) RunOption {
	return func(rc *runConfig) { rc.census = c }
}

func applyRunOptions(opts []RunOption) runConfig {
	var c runConfig
	for _, o := range opts {
		o(&c)
	}
	return c
}

// Census counts how one sweep's scenarios were satisfied. Safe for
// concurrent use; a zero Census is ready. For a completed sweep,
// Scenarios = CacheHits + Simulated + Coalesced (+ Skipped for a sweep
// torn down mid-flight).
type Census struct {
	scenarios, cacheHits, simulated, coalesced, skipped atomic.Uint64
}

// Scenarios is the number of scenario executions the sweep attempted.
func (c *Census) Scenarios() uint64 { return c.scenarios.Load() }

// CacheHits is the number served from the run store without simulating.
func (c *Census) CacheHits() uint64 { return c.cacheHits.Load() }

// Simulated is the number this sweep actually simulated (as flight
// leader, when a Singleflight is configured).
func (c *Census) Simulated() uint64 { return c.simulated.Load() }

// Coalesced is the number satisfied by waiting on another concurrent
// sweep's in-flight simulation of the same scenario.
func (c *Census) Coalesced() uint64 { return c.coalesced.Load() }

// Skipped is the number abandoned without simulating because the sweep
// was torn down (context cancelled or consumer gone) first.
func (c *Census) Skipped() uint64 { return c.skipped.Load() }

// scenarioRuns counts simulator invocations made by the sweep engine
// (runScenario calls). Tests use the difference across a sweep to pin
// the "cached sweeps simulate nothing" contract.
var scenarioRuns atomic.Uint64

// ScenarioRuns reports the cumulative number of scenario simulations the
// sweep engine has executed in this process. A fully cached sweep leaves
// it unchanged.
func ScenarioRuns() uint64 { return scenarioRuns.Load() }

// storeKey derives a scenario's run-store key. Everything that can
// change the scenario's canonical Result JSON participates: the engine
// version, the root seed (the derived seed is included too, though it is
// a function of the two), the scenario's canonical coordinates, and the
// sorted deduplicated metric set (metrics add fields to the Result but
// never alter the simulation).
func storeKey(rootSeed uint64, cfg Scenario, metricNames []string) string {
	names := append([]string(nil), metricNames...)
	sort.Strings(names)
	names = uniqSorted(names)
	return fmt.Sprintf("%s|root=%d|%s|seed=%d|metrics=%s",
		EngineVersion, rootSeed, cfg.Key(), cfg.Seed, strings.Join(names, ","))
}

func uniqSorted(names []string) []string {
	out := names[:0]
	for i, n := range names {
		if i == 0 || n != names[i-1] {
			out = append(out, n)
		}
	}
	return out
}

// StoreStats snapshots a RunStore handle's operation counters (hits,
// misses, puts, bytes moved). Counters are per-handle and start at zero
// at OpenStore — they measure this process's traffic, not the store's
// on-disk history.
type StoreStats = runstore.Stats

// RunStore is an open handle on a content-addressed run store directory
// — the façade's view of the cache WithStore points the sweep engine at.
// A handle is safe for concurrent use and is meant to be shared: a
// long-running service opens one RunStore and passes it to every sweep
// through WithRunStore, so Stats aggregates across requests. Get/Put/Has
// operate on raw store envelopes (key → canonical Result JSON).
type RunStore struct {
	s *runstore.Store
}

// OpenStore opens (creating if necessary) the run store rooted at dir.
func OpenStore(dir string) (*RunStore, error) {
	s, err := runstore.Open(dir)
	if err != nil {
		return nil, err
	}
	return &RunStore{s: s}, nil
}

// Get returns the cached value for key; a missing, unreadable or corrupt
// entry is reported as a plain miss.
func (s *RunStore) Get(key string) ([]byte, bool, error) { return s.s.Get(key) }

// Put stores value under key atomically.
func (s *RunStore) Put(key string, value []byte) error { return s.s.Put(key, value) }

// Has reports whether key has an entry, from the index alone (no file
// read — advisory, like StorePreflight).
func (s *RunStore) Has(key string) bool { return s.s.Has(key) }

// Len reports the number of cached entries.
func (s *RunStore) Len() int { return s.s.Len() }

// Stats snapshots the handle's hit/miss/put/byte counters.
func (s *RunStore) Stats() StoreStats { return s.s.Stats() }

// Flush writes the store's index accelerator if anything changed.
func (s *RunStore) Flush() error { return s.s.Flush() }

// StoreKeys returns the run-store key of every scenario the matrix
// expands to, in expansion order — the addresses a sweep of this matrix
// reads and writes.
func (m Matrix) StoreKeys() ([]string, error) {
	configs, err := m.Configs()
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(configs))
	for i, cfg := range configs {
		keys[i] = storeKey(m.RootSeed, cfg, m.Metrics)
	}
	return keys, nil
}

// Fingerprint returns the matrix's content address: a hex SHA-256 over
// the engine version and every expanded scenario's store key (which
// folds in the root seed, canonical scenario coordinates, derived seeds
// and sorted metric set). Two matrices get the same fingerprint exactly
// when a sweep of each would read and write the same store entries under
// the same engine — making it the natural sweep identity and HTTP ETag
// for a cache-first sweep service. It errors on the same inputs Configs
// does (unknown names, bad alpha, bad shard spec).
func (m Matrix) Fingerprint() (string, error) {
	keys, err := m.StoreKeys()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(EngineVersion))
	for _, k := range keys {
		h.Write([]byte{0})
		h.Write([]byte(k))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runCache binds one sweep to its store: per-scenario keys precomputed
// in expansion order, hit/miss bookkeeping, and end-of-run flush/GC.
type runCache struct {
	store *runstore.Store
	keys  []string
}

// get serves scenario i from the store. Unreadable or undecodable
// entries degrade to a miss (the caller recomputes and put overwrites).
func (c *runCache) get(i int) (Result, bool) {
	raw, ok, err := c.store.Get(c.keys[i])
	if err != nil || !ok {
		return Result{}, false
	}
	var r Result
	if json.Unmarshal(raw, &r) != nil {
		return Result{}, false
	}
	return r, true
}

// put persists scenario i's result.
func (c *runCache) put(i int, r Result) error {
	enc, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return c.store.Put(c.keys[i], enc)
}

// sweepRunner is the per-scenario execution core shared by Run and
// Stream: cache lookup, optional singleflight coalescing, census
// bookkeeping, store persistence and deferred store-error capture.
type sweepRunner struct {
	cache    *runCache
	flight   *Singleflight
	census   *Census
	keys     []string // non-nil when cache or flight need them
	specs    []MetricSpec
	storeErr atomic.Pointer[error]
	// tracer receives one obs.Span per scenario execution; nil (the
	// default) keeps the hot path free of wall-clock reads beyond the
	// historical WallNS one. epoch anchors the spans' common timeline.
	tracer obs.Tracer
	epoch  time.Time
}

// newSweepRunner resolves the run options against the expanded matrix.
func newSweepRunner(c runConfig, m Matrix, configs []Scenario, specs []MetricSpec) (*sweepRunner, error) {
	r := &sweepRunner{flight: c.flight, census: c.census, specs: specs}
	if r.tracer = obs.Multi(c.tracers...); r.tracer != nil {
		r.epoch = time.Now()
	}
	store := c.store
	if store == nil && c.storeDir != "" {
		opened, err := OpenStore(c.storeDir)
		if err != nil {
			return nil, err
		}
		store = opened
	}
	if store != nil || c.flight != nil {
		r.keys = make([]string, len(configs))
		for i, cfg := range configs {
			r.keys[i] = storeKey(m.RootSeed, cfg, m.Metrics)
		}
	}
	if store != nil {
		r.cache = &runCache{store: store.s, keys: r.keys}
	}
	return r, nil
}

// spanRec accumulates one scenario execution's span. A nil *spanRec
// means tracing is off: every method no-ops on a nil receiver, so the
// untraced hot path pays one pointer check per phase boundary and takes
// no wall-clock reads — which is what keeps BenchmarkSweepMatrix with a
// nil tracer at its instrumentation-free baseline.
type spanRec struct {
	span  obs.Span
	start time.Time
}

// beginSpan opens the span for scenario i (nil when tracing is off).
// The queue phase — sweep start to worker pickup — is closed here.
func (r *sweepRunner) beginSpan(i int) *spanRec {
	if r.tracer == nil {
		return nil
	}
	now := time.Now()
	s := &spanRec{start: now}
	s.span.Index = i
	s.span.StartNS = now.Sub(r.epoch).Nanoseconds()
	s.span.QueueNS = s.span.StartNS
	return s
}

// now is the traced-only clock read: zero (and free) when tracing is off.
func (s *spanRec) now() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

func (s *spanRec) addStoreGet(t0 time.Time) {
	if s != nil {
		s.span.StoreGetNS += time.Since(t0).Nanoseconds()
	}
}

func (s *spanRec) addSimulate(t0 time.Time) {
	if s != nil {
		s.span.SimulateNS += time.Since(t0).Nanoseconds()
	}
}

func (s *spanRec) addStorePut(t0 time.Time) {
	if s != nil {
		s.span.StorePutNS += time.Since(t0).Nanoseconds()
	}
}

// finish stamps the outcome and emits the span to the runner's tracers.
func (s *spanRec) finish(r *sweepRunner, cfg Scenario, outcome string) {
	if s == nil {
		return
	}
	s.span.Key = cfg.Key()
	s.span.Outcome = outcome
	s.span.TotalNS = time.Since(s.start).Nanoseconds()
	r.tracer.ObserveSpan(s.span)
}

// exec runs scenario i: store hit, coalesced wait, or a real simulation
// persisted to the store. A cancelled ctx (the stream was torn down)
// skips scenarios that have not started — nothing downstream consumes
// their results, and not starting them is what makes teardown prompt.
func (r *sweepRunner) exec(ctx context.Context, i int, cfg Scenario) Result {
	if r.census != nil {
		r.census.scenarios.Add(1)
	}
	sp := r.beginSpan(i)
	if r.cache != nil {
		t0 := sp.now()
		res, ok := r.cache.get(i)
		sp.addStoreGet(t0)
		if ok {
			if r.census != nil {
				r.census.cacheHits.Add(1)
			}
			sp.finish(r, cfg, obs.OutcomeCacheHit)
			return res
		}
	}
	if ctx != nil && ctx.Err() != nil {
		if r.census != nil {
			r.census.skipped.Add(1)
		}
		sp.finish(r, cfg, obs.OutcomeSkipped)
		return Result{}
	}
	simulated := false
	compute := func() Result {
		// Double-check the store under flight leadership: a previous
		// leader persists before releasing its key, so a caller that
		// missed the cache, stalled, and then won a fresh flight finds
		// the entry here instead of simulating the scenario twice. This
		// is what makes "each scenario simulated at most once" exact
		// rather than probabilistic under concurrent identical sweeps.
		if r.flight != nil && r.cache != nil {
			t0 := sp.now()
			res, ok := r.cache.get(i)
			sp.addStoreGet(t0)
			if ok {
				return res
			}
		}
		simulated = true
		t0 := sp.now()
		res := runScenario(cfg, r.specs)
		sp.addSimulate(t0)
		if r.cache != nil {
			t1 := sp.now()
			err := r.cache.put(i, res)
			sp.addStorePut(t1)
			if err != nil {
				r.storeErr.CompareAndSwap(nil, &err)
			}
		}
		return res
	}
	if r.flight != nil {
		t0 := sp.now()
		res, leader := r.flight.Do(r.keys[i], compute)
		var outcome string
		switch {
		case leader && simulated:
			outcome = obs.OutcomeSimulated
		case leader:
			outcome = obs.OutcomeCacheHit
		default:
			// The wait for the leader's simulation is this execution's
			// simulate phase: it is where the scenario's latency went.
			sp.addSimulate(t0)
			outcome = obs.OutcomeCoalesced
		}
		if r.census != nil {
			switch outcome {
			case obs.OutcomeSimulated:
				r.census.simulated.Add(1)
			case obs.OutcomeCacheHit:
				r.census.cacheHits.Add(1)
			default:
				r.census.coalesced.Add(1)
			}
		}
		sp.finish(r, cfg, outcome)
		return res
	}
	if r.census != nil {
		r.census.simulated.Add(1)
	}
	res := compute()
	sp.finish(r, cfg, obs.OutcomeSimulated)
	return res
}

// err surfaces the first store-persistence failure, if any.
func (r *sweepRunner) err() error {
	if errp := r.storeErr.Load(); errp != nil {
		return *errp
	}
	return nil
}

// flush persists the store index without GC — the teardown path for
// interrupted sweeps, so completed writes survive (objects are already
// durable; this just spares the next Open a reconciliation scan).
func (r *sweepRunner) flush() {
	if r.cache != nil {
		_ = r.cache.store.Flush()
	}
}

// finish flushes the index and, when requested, garbage-collects every
// entry outside the matrix's full unsharded expansion.
func (r *sweepRunner) finish(gc bool, m Matrix) error {
	if r.cache == nil {
		return nil
	}
	if gc {
		full := m
		full.ShardIndex, full.ShardCount = 0, 0
		configs, err := full.Configs()
		if err != nil {
			return err
		}
		keep := make(map[string]bool, len(configs))
		for _, cfg := range configs {
			keep[storeKey(m.RootSeed, cfg, m.Metrics)] = true
		}
		if _, err := r.cache.store.GC(func(key string) bool { return keep[key] }); err != nil {
			return err
		}
		return nil
	}
	return r.cache.store.Flush()
}

// StorePreflight reports how many of the matrix's scenarios are already
// cached in the store at dir (created if missing): the numbers behind
// `btadt sweep -resume`'s "X/Y cached" note and the guard that refuses
// to serve a pre-populated store without an explicit -resume. It counts
// from the store index without reading objects, so it is advisory — an
// object corrupted on disk still counts here and degrades to a
// recompute when served. The post-run ScenarioRuns delta is the exact
// measure of what was actually simulated.
func StorePreflight(dir string, m Matrix) (cached, total int, err error) {
	configs, err := m.Configs()
	if err != nil {
		return 0, 0, err
	}
	store, err := runstore.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, cfg := range configs {
		if store.Has(storeKey(m.RootSeed, cfg, m.Metrics)) {
			cached++
		}
	}
	return cached, len(configs), nil
}
