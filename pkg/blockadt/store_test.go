package blockadt

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"blockadt/internal/runstore"
)

// storeTestMatrix pins its systems explicitly so registrations made by
// other tests cannot change the expansion under us, and enables metric
// collection so cached results must round-trip the metrics map too.
func storeTestMatrix() Matrix {
	return Matrix{
		Systems:      []string{"Bitcoin", "Hyperledger"},
		Links:        []string{LinkSync, LinkAsync},
		Adversaries:  []string{AdvNone, AdvSelfish},
		Seeds:        2,
		RootSeed:     11,
		TargetBlocks: 10,
		Metrics:      MetricNames(),
	}
}

// storeAt opens the run store at dir for one sweep, as a command does:
// each call lists the objects tree anew.
func storeAt(t *testing.T, dir string) RunOption {
	t.Helper()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return WithRunStore(s)
}

// mustExpand expands m, failing the test on an invalid matrix.
func mustExpand(t *testing.T, m Matrix) *Sweep {
	t.Helper()
	sw, err := Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// storeHits reports how many of the matrix's store keys the store at dir
// lists, out of how many.
func storeHits(t *testing.T, dir string, m Matrix) (cached, total int) {
	t.Helper()
	keys := mustExpand(t, m).Keys()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if s.Has(k) {
			cached++
		}
	}
	return cached, len(keys)
}

// TestStoreRoundTrip is the tentpole's golden contract: populate a store
// through a sweep, reopen it, serve the same sweep entirely from cache —
// the JSON is byte-identical to the cold run and the cached pass
// performs zero simulations (pinned by the ScenarioRuns counter).
func TestStoreRoundTrip(t *testing.T) {
	m := storeTestMatrix()
	configs, err := m.Configs()
	if err != nil {
		t.Fatal(err)
	}

	cold, err := Run(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	coldJSON, err := cold.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	before := ScenarioRuns()
	populated, err := Run(m, 2, storeAt(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if ran := ScenarioRuns() - before; ran != uint64(len(configs)) {
		t.Fatalf("populating run simulated %d scenarios, want %d", ran, len(configs))
	}
	populatedJSON, err := populated.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldJSON, populatedJSON) {
		t.Fatal("store-backed cold run diverged from plain run")
	}

	// Reopen the store and serve from cache.
	before = ScenarioRuns()
	cached, err := Run(m, 4, storeAt(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if ran := ScenarioRuns() - before; ran != 0 {
		t.Fatalf("cached run simulated %d scenarios, want 0", ran)
	}
	cachedJSON, err := cached.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldJSON, cachedJSON) {
		t.Fatal("cached run is not byte-identical to the cold run")
	}

	if hit, total := storeHits(t, dir, m); hit != len(configs) || total != len(configs) {
		t.Fatalf("store holds %d of %d keys, want all %d", hit, total, len(configs))
	}
}

// TestStreamServesFromStore pins the same contract on the streaming
// path, populated by Run and served by Stream.
func TestStreamServesFromStore(t *testing.T) {
	m := storeTestMatrix()
	dir := t.TempDir()
	cold, err := Run(m, 1, storeAt(t, dir))
	if err != nil {
		t.Fatal(err)
	}

	before := ScenarioRuns()
	var streamed []Result
	for r, err := range Stream(context.Background(), m, 3, storeAt(t, dir)) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, r)
	}
	if ran := ScenarioRuns() - before; ran != 0 {
		t.Fatalf("cached stream simulated %d scenarios, want 0", ran)
	}
	streamedRep := &Report{RootSeed: m.RootSeed, Results: streamed, Total: len(streamed)}
	for _, r := range streamed {
		if r.Match {
			streamedRep.Matched++
		}
		streamedRep.Ticks += r.Ticks
	}
	a, err := cold.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := streamedRep.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("streamed cached report diverged from cold report")
	}
}

// TestStorePartialResume pins incremental behavior: a store populated by
// one shard serves that shard's scenarios and simulates only the rest.
func TestStorePartialResume(t *testing.T) {
	m := storeTestMatrix()
	shard0, err := m.Shard(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Run(shard0, 1, storeAt(t, dir)); err != nil {
		t.Fatal(err)
	}
	shardConfigs, err := shard0.Configs()
	if err != nil {
		t.Fatal(err)
	}
	fullConfigs, err := m.Configs()
	if err != nil {
		t.Fatal(err)
	}

	before := ScenarioRuns()
	full, err := Run(m, 2, storeAt(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(len(fullConfigs) - len(shardConfigs))
	if ran := ScenarioRuns() - before; ran != want {
		t.Fatalf("resumed run simulated %d scenarios, want %d (the non-cached remainder)", ran, want)
	}
	plain, err := Run(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := plain.EncodeJSON()
	b, _ := full.EncodeJSON()
	if !bytes.Equal(a, b) {
		t.Fatal("resumed run diverged from plain run")
	}
}

// TestStoreKeyIncludesMetrics pins that the metric set participates in
// the store key: a metrics-enabled sweep must not be served results
// cached without metrics (their Result rows differ).
func TestStoreKeyIncludesMetrics(t *testing.T) {
	m := storeTestMatrix()
	m.Metrics = nil
	dir := t.TempDir()
	if _, err := Run(m, 1, storeAt(t, dir)); err != nil {
		t.Fatal(err)
	}
	withMetrics := m
	withMetrics.Metrics = MetricNames()
	configs, err := withMetrics.Configs()
	if err != nil {
		t.Fatal(err)
	}
	before := ScenarioRuns()
	rep, err := Run(withMetrics, 1, storeAt(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if ran := ScenarioRuns() - before; ran != uint64(len(configs)) {
		t.Fatalf("metrics-enabled sweep reused metrics-free cache entries (%d simulated, want %d)", ran, len(configs))
	}
	if len(rep.Results[0].Metrics) == 0 {
		t.Fatal("metrics missing from the metrics-enabled sweep")
	}
}

// TestStoreGC pins WithStoreGC: entries outside the matrix's full
// expansion (here: a stale root seed) are collected, current ones kept.
func TestStoreGC(t *testing.T) {
	stale := storeTestMatrix()
	dir := t.TempDir()
	if _, err := Run(stale, 1, storeAt(t, dir)); err != nil {
		t.Fatal(err)
	}
	current := stale
	current.RootSeed = stale.RootSeed + 1
	if _, err := Run(current, 1, storeAt(t, dir), WithStoreGC()); err != nil {
		t.Fatal(err)
	}
	if staleHits, _ := storeHits(t, dir, stale); staleHits != 0 {
		t.Fatalf("GC left %d stale entries", staleHits)
	}
	if curHits, total := storeHits(t, dir, current); curHits != total {
		t.Fatalf("GC collected live entries: %d/%d cached", curHits, total)
	}
}

// TestStoreWritesOnlyObjects pins that sweeps write nothing store-wide:
// after a cold Run, a cached Run with GC and a Stream torn down early,
// the store directory holds exactly one objects/<hh>/<hash>.json per
// scenario.
func TestStoreWritesOnlyObjects(t *testing.T) {
	m := storeTestMatrix()
	dir := t.TempDir()
	if _, err := Run(m, 2, storeAt(t, dir)); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(m, 2, storeAt(t, dir), WithStoreGC()); err != nil {
		t.Fatal(err)
	}
	for _, err := range Stream(context.Background(), m, 2, storeAt(t, dir)) {
		if err != nil {
			t.Fatal(err)
		}
		break
	}
	keys := mustExpand(t, m).Keys()
	want := map[string]bool{}
	for _, k := range keys {
		h := runstore.Hash(k)
		want["objects/"+h[:2]+"/"+h+".json"] = true
	}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		if !want[filepath.ToSlash(rel)] {
			t.Errorf("store holds %s, which is no scenario's object", rel)
		}
		delete(want, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 0 {
		t.Fatalf("%d scenario objects missing", len(want))
	}
}

// TestRunCacheGet pins the cache's read path: a hit decodes to exactly
// the Result the sweep stored, and an object under a foreign key or with
// data that is not a Result is a miss, counted as one.
func TestRunCacheGet(t *testing.T) {
	m := storeTestMatrix()
	dir := t.TempDir()
	rep, err := Run(m, 1, storeAt(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	keys := mustExpand(t, m).Keys()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := &runCache{store: store.s, keys: keys}
	for i, want := range rep.Results {
		got, ok := c.get(i)
		if !ok {
			t.Fatalf("scenario %d missed", i)
		}
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want)
		if !bytes.Equal(a, b) {
			t.Fatalf("scenario %d: hit decoded to\n%s\nwant\n%s", i, a, b)
		}
	}

	objectPath := func(key string) string {
		h := runstore.Hash(key)
		return filepath.Join(dir, "objects", h[:2], h+".json")
	}
	data, err := json.Marshal(rep.Results[0])
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := json.Marshal(map[string]any{"key": keys[1], "data": json.RawMessage(data)})
	if err != nil {
		t.Fatal(err)
	}
	malformed, err := json.Marshal(map[string]any{"key": keys[1], "data": map[string]any{"blocks": "many"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(objectPath(keys[0]), foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(objectPath(keys[1]), malformed, 0o644); err != nil {
		t.Fatal(err)
	}
	before := store.Stats()
	for i := 0; i < 2; i++ {
		if _, ok := c.get(i); ok {
			t.Fatalf("scenario %d hit a damaged object", i)
		}
	}
	if after := store.Stats(); after.Misses-before.Misses != 2 || after.Hits != before.Hits {
		t.Fatalf("damaged objects counted %d misses and %d hits, want 2 and 0",
			after.Misses-before.Misses, after.Hits-before.Hits)
	}
}

// TestWallNSMarksComputedResults pins the provenance mark the sweep
// service flushes on: a simulated Result carries its wall-clock cost,
// and one served from the store carries none, because WallNS is not part
// of the JSON the store keeps.
func TestWallNSMarksComputedResults(t *testing.T) {
	m := storeTestMatrix()
	m.RootSeed = 12
	dir := t.TempDir()
	for pass, name := range []string{"simulated", "cached"} {
		rep, err := Run(m, 2, storeAt(t, dir))
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rep.Results {
			if computed := r.WallNS != 0; computed != (pass == 0) {
				t.Fatalf("%s pass: scenario %d has WallNS %d", name, i, r.WallNS)
			}
		}
	}
}
