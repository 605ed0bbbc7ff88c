package blockadt

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"blockadt/internal/runstore"
)

// hookTestMatrix is a small metrics-enabled matrix with pinned systems
// (registrations made by other tests cannot change the expansion).
func hookTestMatrix() Matrix {
	return Matrix{
		Systems:      []string{"Bitcoin"},
		Links:        []string{LinkSync, LinkAsync},
		Adversaries:  []string{AdvNone, AdvSelfish},
		Seeds:        2,
		RootSeed:     23,
		TargetBlocks: 8,
		Metrics:      []string{"fork_rate", "msgs_delivered"},
	}
}

// TestWithRunStoreSharedHandle pins the shared-handle contract behind a
// long-running service: two sweeps through one RunStore accumulate
// hit/miss/put statistics across calls, the second is served entirely
// from cache, and the per-sweep Census agrees with the global
// ScenarioRuns counter.
func TestWithRunStoreSharedHandle(t *testing.T) {
	m := hookTestMatrix()
	configs, err := m.Configs()
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(len(configs))
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	var first Census
	before := ScenarioRuns()
	if _, err := Run(m, 2, WithRunStore(store), WithCensus(&first)); err != nil {
		t.Fatal(err)
	}
	if ran := ScenarioRuns() - before; ran != total {
		t.Fatalf("cold run simulated %d, want %d", ran, total)
	}
	if first.Simulated() != total || first.CacheHits() != 0 {
		t.Fatalf("cold census: simulated %d cacheHits %d, want %d/0",
			first.Simulated(), first.CacheHits(), total)
	}

	var second Census
	before = ScenarioRuns()
	if _, err := Run(m, 2, WithRunStore(store), WithCensus(&second)); err != nil {
		t.Fatal(err)
	}
	if ran := ScenarioRuns() - before; ran != 0 {
		t.Fatalf("cached run simulated %d, want 0", ran)
	}
	if second.CacheHits() != total || second.Simulated() != 0 {
		t.Fatalf("cached census: cacheHits %d simulated %d, want %d/0",
			second.CacheHits(), second.Simulated(), total)
	}

	stats := store.Stats()
	if stats.Puts != total {
		t.Fatalf("stats.Puts = %d, want %d", stats.Puts, total)
	}
	if stats.Hits != total || stats.Misses != total {
		t.Fatalf("stats hits/misses = %d/%d, want %d/%d (one miss then one hit per scenario)",
			stats.Hits, stats.Misses, total, total)
	}
}

// TestSingleflightConcurrentIdenticalSweeps is the engine half of the
// service's concurrency contract: many concurrent identical sweeps over
// one store and one flight group simulate each scenario EXACTLY once —
// the store dedups across time, the flight group dedups in-flight, and
// the leader's persist-before-release plus the in-flight double-check
// closes the window between them.
func TestSingleflightConcurrentIdenticalSweeps(t *testing.T) {
	m := hookTestMatrix()
	configs, err := m.Configs()
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(len(configs))
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	flight := NewSingleflight()

	const clients = 32
	censuses := make([]Census, clients)
	reports := make([]*Report, clients)
	before := ScenarioRuns()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rep, err := Run(m, 2, WithRunStore(store), WithSingleflight(flight), WithCensus(&censuses[c]))
			if err != nil {
				t.Error(err)
				return
			}
			reports[c] = rep
		}(c)
	}
	wg.Wait()

	if ran := ScenarioRuns() - before; ran != total {
		t.Fatalf("%d concurrent identical sweeps simulated %d scenarios, want exactly %d", clients, ran, total)
	}
	var simulated uint64
	for c := range censuses {
		cen := &censuses[c]
		simulated += cen.Simulated()
		if got := cen.CacheHits() + cen.Simulated() + cen.Coalesced(); got != total {
			t.Fatalf("client %d census does not cover the matrix: %d of %d", c, got, total)
		}
	}
	if simulated != total {
		t.Fatalf("censuses claim %d simulations, want %d", simulated, total)
	}
	// Every client saw the identical canonical report.
	want, err := reports[0].EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	for c := 1; c < clients; c++ {
		got, err := reports[c].EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("client %d report diverged from client 0", c)
		}
	}
	if flight.Inflight() != 0 {
		t.Fatalf("flight group still tracks %d keys after all sweeps finished", flight.Inflight())
	}
}

// TestMatrixFingerprint pins the sweep-identity contract the serving
// layer keys requests on: deterministic, sensitive to every dimension
// that changes a store key, and failing on the same inputs Configs does.
func TestMatrixFingerprint(t *testing.T) {
	m := hookTestMatrix()
	a := mustExpand(t, m).Fingerprint()
	if b := mustExpand(t, m).Fingerprint(); a != b {
		t.Fatal("fingerprint is not deterministic")
	}

	seed := m
	seed.RootSeed++
	if mustExpand(t, seed).Fingerprint() == a {
		t.Fatal("fingerprint ignores the root seed")
	}
	metrics := m
	metrics.Metrics = nil
	if mustExpand(t, metrics).Fingerprint() == a {
		t.Fatal("fingerprint ignores the metric set")
	}

	sw := mustExpand(t, m)
	configs, err := m.Configs()
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Keys()) != len(configs) || sw.Len() != len(configs) {
		t.Fatalf("Keys returned %d keys, Len %d, for %d scenarios", len(sw.Keys()), sw.Len(), len(configs))
	}

	bad := m
	bad.Systems = []string{"Dogecoin"}
	if _, err := Expand(bad); err == nil {
		t.Fatal("Expand accepted an unregistered system")
	}
}

// ciMatrix is the canonical CI sweep matrix (SWEEP_baseline.json's),
// with the built-in systems and metrics spelled out: tests register
// more of both, and the registry defaults would pick them up.
func ciMatrix() Matrix {
	return Matrix{
		Systems:      []string{"Bitcoin", "Ethereum", "Algorand", "ByzCoin", "PeerCensus", "RedBelly", "Hyperledger"},
		Links:        []string{LinkSync, LinkAsync, LinkPsync, LinkLossy, LinkPartition, LinkJitter},
		Adversaries:  []string{AdvNone, AdvSelfish},
		Ns:           []int{8},
		Seeds:        2,
		TargetBlocks: 30,
		RootSeed:     42,
		Metrics: []string{"fork_rate", "chain_quality", "growth_rate", "finality_depth", "finality_latency",
			"msgs_delivered", "msg_bytes", "rounds_to_agreement", "adversary_share", "fairness_tvd",
			"msgs_dropped", "partition_heal_lag"},
	}
}

// TestAddressesPinned pins the run-store addresses byte for byte: the
// sweep ids (and ETags) clients hold, and the object names existing
// stores were written under. A change to any of these literals orphans
// every store and invalidates every ETag, so it must come with an
// EngineVersion bump, never silently.
func TestAddressesPinned(t *testing.T) {
	ci := mustExpand(t, ciMatrix())
	if got, want := ci.Fingerprint(), "2f9e1331a01248bdfd4817d3bf2538d7c5ce4c870954a3598150e2eb848f3780"; got != want {
		t.Errorf("CI matrix fingerprint = %s, want %s", got, want)
	}
	table1 := Table1(8, 30, 42)
	table1.Systems = ciMatrix().Systems
	if got, want := mustExpand(t, table1).Fingerprint(), "6221d23ef9da30b8976cc3b122a047e522935cf39a16c7cca0bb0f7dd3a19d19"; got != want {
		t.Errorf("Table 1 fingerprint = %s, want %s", got, want)
	}
	const key0 = "btadt-engine-v4|root=42|Bitcoin|sync|none|a=0.0000|n=8|b=30|s=0|seed=8502013113552945509|" +
		"metrics=adversary_share,chain_quality,fairness_tvd,finality_depth,finality_latency,fork_rate," +
		"growth_rate,msg_bytes,msgs_delivered,msgs_dropped,partition_heal_lag,rounds_to_agreement"
	if got := ci.Keys()[0]; got != key0 {
		t.Errorf("CI matrix first store key = %q, want %q", got, key0)
	}
	if got, want := runstore.Hash(ci.Keys()[0]), "031a366e146ee4c71d4fa974b598d75ebe733b9276d366374ccbc086d085a7f7"; got != want {
		t.Errorf("CI matrix first object hash = %s, want %s", got, want)
	}
}

// TestStreamEarlyBreakTeardown is the prompt-teardown regression: a
// consumer that breaks out of Stream leaks no goroutines (queued
// scenarios are skipped, in-flight ones finish and their goroutines
// exit) and the store still holds every completed write, so the next
// sweep resumes from them.
func TestStreamEarlyBreakTeardown(t *testing.T) {
	dir := t.TempDir()
	m := streamTestMatrix()
	configs, err := m.Configs()
	if err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	before := ScenarioRuns()
	consumed := 0
	for _, err := range Stream(context.Background(), m, 4, storeAt(t, dir)) {
		if err != nil {
			t.Fatal(err)
		}
		consumed++
		if consumed == 3 {
			break
		}
	}

	// In-flight scenarios finish on their workers; everything queued
	// behind them observes the cancelled pool and skips. Within a
	// bounded settling window the goroutine count must return to the
	// pre-stream baseline.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Fatalf("stream teardown leaked goroutines: %d running, baseline %d", g, baseline)
	}
	// Prompt teardown: the break must have stopped the sweep well short
	// of the full matrix (at most the pool's admission window past the
	// consumed results can ever have started).
	if ran := ScenarioRuns() - before; ran >= uint64(len(configs)) {
		t.Fatalf("broken-out stream still simulated the whole matrix (%d of %d)", ran, len(configs))
	}

	// Completed writes persisted: a reopened store serves at least the
	// three consumed results.
	if cached, total := storeHits(t, dir, m); cached < consumed {
		t.Fatalf("store holds %d of %d results after the break, want at least %d", cached, total, consumed)
	}
}
