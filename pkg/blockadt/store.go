package blockadt

import (
	"context"
	"encoding/json"
	"runtime/debug"
	"slices"
	"strconv"
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
// v4: a run's expected level is its system's Table 1 level unless it
// falls short of it and breaks LRC or Update Agreement, and it matches
// when it measures at least as strong — lossy runs over gossip that
// converge now expect and match EC.
const EngineVersion = "btadt-engine-v4"

// RunOption customizes Run and Stream (the sweep engine's entry
// points), as Option customizes New/Simulate. The zero set of options
// reproduces the historical behavior exactly.
type RunOption func(*runConfig)

type runConfig struct {
	storeGC bool
	store   *RunStore
	flight  *Singleflight
	census  *Census
	tracers []obs.Tracer
}

// WithStoreGC garbage-collects the store after the sweep: every entry
// that is not part of this matrix's FULL (unsharded) expansion under the
// current engine version is deleted. Sharded sweeps therefore never
// collect sibling shards' entries. Only meaningful with WithRunStore.
func WithStoreGC() RunOption {
	return func(c *runConfig) { c.storeGC = true }
}

// WithRunStore backs the sweep with an open RunStore handle: scenarios
// whose key — a hash of {engine version, root seed, scenario
// coordinates, derived seed, metric set} — is already cached are served
// from disk without simulating, and misses are computed and persisted
// atomically. Because the store holds each scenario's canonical Result
// JSON, a cached sweep's report is byte-identical to a cold run's at any
// parallelism. A long-running service passes one shared handle through
// every Run/Stream so cache-hit/miss statistics accumulate process-wide
// and the objects tree is listed once.
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

// appendStoreKey appends a scenario's run-store key to b. Everything
// that can change the scenario's canonical Result JSON participates: the
// engine version, the root seed (the derived seed is included too,
// though it is a function of the two), the scenario's canonical
// coordinates, and the metric set (metrics add fields to the Result but
// never alter the simulation). metrics is metricSet's rendering, which a
// sweep computes once. The layout is
// "engine|root=%d|<Scenario.Key>|seed=%d|metrics=<set>".
func appendStoreKey(b []byte, rootSeed uint64, cfg Scenario, metrics string) []byte {
	b = append(b, EngineVersion...)
	b = append(b, "|root="...)
	b = strconv.AppendUint(b, rootSeed, 10)
	b = append(b, '|')
	b = cfg.appendKey(b)
	b = append(b, "|seed="...)
	b = strconv.AppendUint(b, cfg.Seed, 10)
	b = append(b, "|metrics="...)
	return append(b, metrics...)
}

// storeKeys returns the run-store key of every scenario, in order.
func storeKeys(rootSeed uint64, configs []Scenario, metrics string) []string {
	keys := make([]string, len(configs))
	var b []byte
	for i, cfg := range configs {
		b = appendStoreKey(b[:0], rootSeed, cfg, metrics)
		keys[i] = string(b)
	}
	return keys
}

// metricSet renders a metric list the way store keys carry it: sorted,
// deduplicated and comma-joined.
func metricSet(names []string) string {
	sorted := slices.Clone(names)
	slices.Sort(sorted)
	return strings.Join(slices.Compact(sorted), ",")
}

// StoreStats snapshots a RunStore handle's operation counters (hits,
// misses, puts, bytes moved). Counters are per-handle and start at zero
// at OpenStore — they measure this process's traffic, not the store's
// on-disk history.
type StoreStats = runstore.Stats

// RunStore is an open handle on a content-addressed run store directory
// — the façade's view of the sweep engine's cache. A handle is safe for
// concurrent use and is meant to be shared: a long-running service opens
// one RunStore and passes it to every sweep through WithRunStore, so
// Stats aggregates across requests. Has asks the store for a raw key
// (key → canonical Result JSON).
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

// Has reports whether key has an entry, from the listed object names
// alone. It reads no file, so it is advisory: an object corrupted on
// disk still counts here and degrades to a recompute when served.
func (s *RunStore) Has(key string) bool { return s.s.Has(key) }

// Len reports the number of cached entries.
func (s *RunStore) Len() int { return s.s.Len() }

// Stats snapshots the handle's hit/miss/put/byte counters.
func (s *RunStore) Stats() StoreStats { return s.s.Stats() }

// runCache binds one sweep to its store: per-scenario keys precomputed
// in expansion order, hit/miss bookkeeping, and end-of-run GC.
type runCache struct {
	store *runstore.Store
	keys  []string
}

// get serves scenario i from the store. Unreadable or undecodable
// entries degrade to a miss (the caller recomputes and put overwrites).
func (c *runCache) get(i int) (Result, bool) {
	var r Result
	if ok, err := c.store.Get(c.keys[i], &r); err != nil || !ok {
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

// sweepRunner is Stream's per-scenario execution core: cache lookup,
// optional singleflight coalescing, census bookkeeping, store
// persistence and deferred error capture.
type sweepRunner struct {
	cache  *runCache
	flight *Singleflight
	census *Census
	keys   []string // store keys in expansion order
	specs  []MetricSpec
	// firstErr is the sweep's first failure: a scenario the executor
	// rejected or a result the store could not persist.
	firstErr atomic.Pointer[error]
	// tracer receives one obs.Span per scenario execution; nil (the
	// default) keeps the hot path free of wall-clock reads beyond the
	// historical WallNS one. epoch anchors the spans' common timeline.
	tracer obs.Tracer
	epoch  time.Time
}

// newSweepRunner resolves the run options against an expanded sweep's
// store keys and metric collectors.
func newSweepRunner(c runConfig, keys []string, specs []MetricSpec) *sweepRunner {
	r := &sweepRunner{flight: c.flight, census: c.census, keys: keys, specs: specs}
	if r.tracer = obs.Multi(c.tracers...); r.tracer != nil {
		r.epoch = time.Now()
	}
	if c.store != nil {
		r.cache = &runCache{store: c.store.s, keys: keys}
	}
	return r
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
	if ctx.Err() != nil {
		if r.census != nil {
			r.census.skipped.Add(1)
		}
		sp.finish(r, cfg, obs.OutcomeSkipped)
		return Result{}
	}
	simulated := false
	compute := func() (Result, error) {
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
				return res, nil
			}
		}
		simulated = true
		t0 := sp.now()
		res, err := r.simulate(cfg)
		sp.addSimulate(t0)
		if err != nil {
			return Result{}, err
		}
		if r.cache != nil {
			t1 := sp.now()
			err := r.cache.put(i, res)
			sp.addStorePut(t1)
			if err != nil {
				r.firstErr.CompareAndSwap(nil, &err)
			}
		}
		return res, nil
	}
	if r.flight != nil {
		t0 := sp.now()
		res, leader, err := r.flight.Do(r.keys[i], compute)
		if err != nil {
			r.firstErr.CompareAndSwap(nil, &err)
		}
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
	res, err := compute()
	if err != nil {
		r.firstErr.CompareAndSwap(nil, &err)
	}
	sp.finish(r, cfg, obs.OutcomeSimulated)
	return res
}

// simulate runs one scenario, turning a panic anywhere in it into a
// *ScenarioPanicError so one bad scenario fails its sweep instead of
// killing the process, a serving one included. A panicking scenario
// never reaches its history's release: its buffers go to the garbage
// collector, not to the next scenario.
func (r *sweepRunner) simulate(cfg Scenario) (res Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = Result{}, &ScenarioPanicError{Key: cfg.Key(), Value: v, Stack: debug.Stack()}
		}
	}()
	return runScenario(cfg, r.specs)
}

// err surfaces the sweep's first scenario or store failure, if any.
func (r *sweepRunner) err() error {
	if errp := r.firstErr.Load(); errp != nil {
		return *errp
	}
	return nil
}

// finish garbage-collects, when requested, every entry outside the
// sweep's full unsharded expansion. An unsharded sweep's own keys are
// that keep-set; a shard expands the full matrix once more.
func (r *sweepRunner) finish(gc bool, sw *Sweep) error {
	if r.cache == nil || !gc {
		return nil
	}
	keys := sw.keys
	if sw.m.ShardCount > 1 {
		full := sw.m
		full.ShardIndex, full.ShardCount = 0, 0
		configs, err := full.Configs()
		if err != nil {
			return err
		}
		keys = storeKeys(sw.m.RootSeed, configs, metricSet(sw.m.Metrics))
	}
	keep := make(map[string]bool, len(keys))
	for _, k := range keys {
		keep[k] = true
	}
	_, err := r.cache.store.GC(func(key string) bool { return keep[key] })
	return err
}
