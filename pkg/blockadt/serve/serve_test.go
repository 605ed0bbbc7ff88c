package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"blockadt/pkg/blockadt"
)

// serveTestMatrix is a small metrics-enabled matrix with pinned
// dimensions, so registrations made by other tests cannot change the
// expansion. RootSeed is distinct per test to keep store keys disjoint
// across the suite's stores (they are per-TempDir anyway — the seed just
// keeps ScenarioRuns deltas attributable).
func serveTestMatrix(rootSeed uint64) blockadt.Matrix {
	return blockadt.Matrix{
		Systems:      []string{"Bitcoin"},
		Links:        []string{blockadt.LinkSync, blockadt.LinkAsync},
		Adversaries:  []string{blockadt.AdvNone, blockadt.AdvSelfish},
		Seeds:        2,
		RootSeed:     rootSeed,
		TargetBlocks: 8,
		Metrics:      []string{"fork_rate", "msgs_delivered"},
	}
}

// newTestServer builds a Server over a fresh temp store and mounts it on
// an httptest.Server.
func newTestServer(t *testing.T, mutate func(*Config)) (*httptest.Server, *Server) {
	t.Helper()
	store, err := blockadt.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Store: store, Parallelism: 2}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// submitSweep POSTs a matrix and parses the NDJSON stream into results
// plus the trailing summary.
func submitSweep(t *testing.T, base string, m blockadt.Matrix) ([]blockadt.Result, SweepSummary, *http.Response) {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(mustJSON(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	var results []blockadt.Result
	var summary SweepSummary
	sawSummary := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var wrapped struct {
			Summary *SweepSummary `json:"summary"`
			Error   string        `json:"error"`
		}
		if err := json.Unmarshal(line, &wrapped); err == nil && wrapped.Error != "" {
			t.Fatalf("stream error: %s", wrapped.Error)
		}
		if err := json.Unmarshal(line, &wrapped); err == nil && wrapped.Summary != nil {
			summary = *wrapped.Summary
			sawSummary = true
			continue
		}
		var r blockadt.Result
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawSummary {
		t.Fatal("stream ended without a summary line")
	}
	return results, summary, resp
}

// TestSubmitValidation pins the HTTP boundary: unknown names are 400s
// that teach the registered alternatives, malformed JSON is a 400 (not a
// 500), and oversized bodies are 413 with the configured limit.
func TestSubmitValidation(t *testing.T) {
	ts, _ := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 512 })

	post := func(body []byte) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp, string(raw)
	}

	bad := serveTestMatrix(1)
	bad.Systems = []string{"Dogecoin"}
	resp, body := post(mustJSON(t, bad))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown system: got %s, want 400 (body %s)", resp.Status, body)
	}
	if !strings.Contains(body, "registered") || !strings.Contains(body, "Bitcoin") {
		t.Fatalf("unknown-system 400 should list registered systems, got %s", body)
	}
	var structured struct {
		Error      string   `json:"error"`
		Kind       string   `json:"kind"`
		Name       string   `json:"name"`
		Registered []string `json:"registered"`
	}
	if err := json.Unmarshal([]byte(body), &structured); err != nil {
		t.Fatalf("unknown-name 400 body is not JSON: %v (body %s)", err, body)
	}
	if structured.Kind != "system" || structured.Name != "Dogecoin" {
		t.Fatalf("unknown-name 400 should carry kind/name fields, got %+v", structured)
	}
	if !slices.Contains(structured.Registered, "Bitcoin") {
		t.Fatalf("unknown-name 400 should list registered systems in a field, got %+v", structured)
	}

	badLink := serveTestMatrix(1)
	badLink.Links = []string{"carrier-pigeon"}
	resp, body = post(mustJSON(t, badLink))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "registered") {
		t.Fatalf("unknown link: got %s body %s, want 400 listing registered links", resp.Status, body)
	}

	// A negative process count would panic the simulator on a pool
	// goroutine and take the whole server down; it must be a 400.
	resp, body = post([]byte(`{"systems":["Bitcoin"],"ns":[-1,-2,-3,-4],"rootSeed":1}`))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "process count") {
		t.Fatalf("negative ns: got %s (body %s), want 400", resp.Status, body)
	}

	resp, body = post([]byte(`{"systems": ["Bitcoin"`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: got %s (body %s), want 400", resp.Status, body)
	}

	resp, body = post([]byte(`[1,2,3]`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-object JSON: got %s (body %s), want 400", resp.Status, body)
	}

	huge := append([]byte(`{"systems": ["`), bytes.Repeat([]byte("x"), 1024)...)
	huge = append(huge, []byte(`"]}`)...)
	resp, body = post(huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: got %s, want 413", resp.Status)
	}
	if !strings.Contains(body, "512") {
		t.Fatalf("413 should name the configured limit, got %s", body)
	}
}

// TestSubmitCacheFirst is the service's core contract over HTTP: the
// second submission of an identical matrix simulates nothing, streams
// the identical results, and both passes agree with a direct engine run.
func TestSubmitCacheFirst(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	m := serveTestMatrix(31)
	total := matrixTotal(t, m)

	before := blockadt.ScenarioRuns()
	cold, coldSummary, coldResp := submitSweep(t, ts.URL, m)
	if ran := blockadt.ScenarioRuns() - before; ran != uint64(total) {
		t.Fatalf("cold submission simulated %d, want %d", ran, total)
	}
	if coldSummary.Simulated != uint64(total) || coldSummary.CacheHits != 0 {
		t.Fatalf("cold summary: %+v, want %d simulated / 0 cached", coldSummary, total)
	}
	if len(cold) != total {
		t.Fatalf("cold stream yielded %d results, want %d", len(cold), total)
	}
	id := coldResp.Header.Get("X-Sweep-Id")
	if id == "" {
		t.Fatal("submission response carries no X-Sweep-Id")
	}
	wantID, err := m.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if id != wantID {
		t.Fatalf("X-Sweep-Id %q is not the matrix fingerprint %q", id, wantID)
	}

	before = blockadt.ScenarioRuns()
	warm, warmSummary, _ := submitSweep(t, ts.URL, m)
	if ran := blockadt.ScenarioRuns() - before; ran != 0 {
		t.Fatalf("cached submission simulated %d, want 0", ran)
	}
	if warmSummary.CacheHits != uint64(total) || warmSummary.Simulated != 0 {
		t.Fatalf("warm summary: %+v, want %d cached / 0 simulated", warmSummary, total)
	}
	if mustString(t, cold) != mustString(t, warm) {
		t.Fatal("cached stream diverged from the cold stream")
	}
}

func matrixTotal(t *testing.T, m blockadt.Matrix) int {
	t.Helper()
	configs, err := m.Configs()
	if err != nil {
		t.Fatal(err)
	}
	return len(configs)
}

func mustString(t *testing.T, v any) string {
	t.Helper()
	return string(mustJSON(t, v))
}

// TestConcurrentIdenticalSubmissions fires 32 concurrent identical
// submissions at one server and asserts each scenario simulated at most
// once — the singleflight + store double-check contract, now across the
// full HTTP stack.
func TestConcurrentIdenticalSubmissions(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	m := serveTestMatrix(32)
	total := matrixTotal(t, m)

	const clients = 32
	summaries := make([]SweepSummary, clients)
	streams := make([]string, clients)
	before := blockadt.ScenarioRuns()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results, summary, _ := submitSweep(t, ts.URL, m)
			summaries[c] = summary
			streams[c] = mustString(t, results)
		}(c)
	}
	wg.Wait()

	if ran := blockadt.ScenarioRuns() - before; ran != uint64(total) {
		t.Fatalf("%d concurrent submissions simulated %d scenarios, want exactly %d", clients, ran, total)
	}
	var simulated uint64
	for c, s := range summaries {
		simulated += s.Simulated
		if got := s.Simulated + s.CacheHits + s.Coalesced; got != uint64(total) {
			t.Fatalf("client %d summary covers %d of %d scenarios: %+v", c, got, total, s)
		}
		if streams[c] != streams[0] {
			t.Fatalf("client %d stream diverged from client 0", c)
		}
	}
	if simulated != uint64(total) {
		t.Fatalf("summaries claim %d simulations, want %d", simulated, total)
	}
}

// TestPollAndReport walks the poll lifecycle: 404 before submission,
// done + ETag after, 304 on If-None-Match, and a report byte-identical
// to the engine's canonical encoding, served from cache.
func TestPollAndReport(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	m := serveTestMatrix(33)
	id, err := m.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("poll before submission: got %s, want 404", resp.Status)
	}

	submitSweep(t, ts.URL, m)

	resp, err = http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var status sweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.Status != "done" || status.Completed != status.Total {
		t.Fatalf("poll after submission: %+v, want done and complete", status)
	}
	etag := resp.Header.Get("ETag")
	if etag != `"`+id+`"` {
		t.Fatalf("done sweep ETag = %q, want quoted fingerprint", etag)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/sweeps/"+id, nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional poll: got %s, want 304", resp.Status)
	}

	// The report endpoint serves the canonical encoding without
	// simulating anything.
	want, err := blockadt.Run(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := want.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	before := blockadt.ScenarioRuns()
	resp, err = http.Get(ts.URL + "/v1/sweeps/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: %s: %s", resp.Status, got)
	}
	if string(got) != string(wantJSON) {
		t.Fatal("served report is not byte-identical to the engine's canonical encoding")
	}
	if ran := blockadt.ScenarioRuns() - before; ran != 0 {
		t.Fatalf("serving the report simulated %d scenarios, want 0", ran)
	}
}

// TestMetricsz spot-checks the operational counters after a cold and a
// cached pass.
func TestMetricsz(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	m := serveTestMatrix(37)
	total := uint64(matrixTotal(t, m))

	submitSweep(t, ts.URL, m)
	submitSweep(t, ts.URL, m)

	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	var snap metricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if snap.Simulated != total {
		t.Fatalf("metricsz simulated = %d, want %d", snap.Simulated, total)
	}
	if snap.CacheHits != total {
		t.Fatalf("metricsz cacheHits = %d, want %d", snap.CacheHits, total)
	}
	if snap.ScenariosCompleted != 2*total {
		t.Fatalf("metricsz scenariosCompleted = %d, want %d", snap.ScenariosCompleted, 2*total)
	}
	if snap.StoreEntries < int(total) {
		t.Fatalf("metricsz storeEntries = %d, want >= %d", snap.StoreEntries, total)
	}
	if snap.Store.Puts != total {
		t.Fatalf("metricsz store.puts = %d, want %d", snap.Store.Puts, total)
	}
	if snap.InflightSweeps != 0 || snap.InflightScenarios != 0 {
		t.Fatalf("idle gauges nonzero: %+v", snap)
	}
	if snap.Build.Engine != blockadt.EngineVersion || snap.Build.GoVersion == "" {
		t.Fatalf("metricsz build info incomplete: %+v", snap.Build)
	}
	// Both passes fold into the latency histograms: the total phase has
	// seen every scenario, simulated and cached alike.
	var sawTotal bool
	for _, l := range snap.Latencies {
		if l.Phase == "total" {
			sawTotal = true
			if l.Count <= 0 || l.P50NS <= 0 {
				t.Fatalf("degenerate latency summary: %+v", l)
			}
		}
	}
	if !sawTotal {
		t.Fatalf("metricsz latencies carry no total phase: %+v", snap.Latencies)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if resp.StatusCode != http.StatusOK || lines[0] != "ok" {
		t.Fatalf("healthz: %s %q", resp.Status, body)
	}
	if len(lines) < 4 || !strings.Contains(string(body), "engine: "+blockadt.EngineVersion) {
		t.Fatalf("healthz should report the build triple after ok, got %q", body)
	}
}
