package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"blockadt/internal/obs"
	"blockadt/pkg/blockadt"
)

// scrapeProm fetches /metricsz with the Prometheus Accept header and
// parses every sample line into "name{labels}" → value.
func scrapeProm(t *testing.T, base string) (map[string]float64, string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, base+"/metricsz", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus scrape: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("prometheus content type = %q, want %q", ct, obs.PromContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in sample line %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	return samples, string(body)
}

// TestMetricszPrometheus pins the exposition face: core series carry
// the same numbers as the JSON face, build info is labeled, and the
// phase summary exposes p50/p99 per phase and outcome.
func TestMetricszPrometheus(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	m := serveTestMatrix(38)
	total := float64(matrixTotal(t, m))

	submitSweep(t, ts.URL, m) // cold: everything simulated
	submitSweep(t, ts.URL, m) // warm: everything a cache hit

	samples, body := scrapeProm(t, ts.URL)

	for series, want := range map[string]float64{
		"btadt_scenarios_simulated_total":  total,
		"btadt_scenarios_cache_hits_total": total,
		"btadt_scenarios_completed_total":  2 * total,
		"btadt_inflight_sweeps":            0,
		"btadt_store_puts_total":           total,
	} {
		got, ok := samples[series]
		if !ok {
			t.Fatalf("exposition is missing %s:\n%s", series, body)
		}
		if got != want {
			t.Fatalf("%s = %v, want %v", series, got, want)
		}
	}

	bi := blockadt.Build()
	info := `btadt_build_info{version="` + bi.Version + `",goversion="` + bi.GoVersion +
		`",engine="` + bi.Engine + `"}`
	if samples[info] != 1 {
		t.Fatalf("exposition is missing %s:\n%s", info, body)
	}

	// The phase summary: simulated scenarios have a simulate phase,
	// cache hits do not; both have total-phase quantiles and counts.
	for _, series := range []string{
		`btadt_scenario_phase_seconds{phase="total",outcome="simulated",quantile="0.5"}`,
		`btadt_scenario_phase_seconds{phase="total",outcome="simulated",quantile="0.99"}`,
		`btadt_scenario_phase_seconds{phase="simulate",outcome="simulated",quantile="0.5"}`,
		`btadt_scenario_phase_seconds{phase="total",outcome="cache-hit",quantile="0.5"}`,
		`btadt_scenario_phase_seconds{phase="store_get",outcome="cache-hit",quantile="0.99"}`,
	} {
		v, ok := samples[series]
		if !ok {
			t.Fatalf("exposition is missing %s:\n%s", series, body)
		}
		if v <= 0 || math.IsNaN(v) {
			t.Fatalf("%s = %v, want a positive duration", series, v)
		}
	}
	for _, outcome := range []string{"simulated", "cache-hit"} {
		series := `btadt_scenario_phase_seconds_count{phase="total",outcome="` + outcome + `"}`
		if samples[series] != total {
			t.Fatalf("%s = %v, want %v", series, samples[series], total)
		}
	}
	if series := `btadt_scenario_phase_seconds{phase="simulate",outcome="cache-hit",quantile="0.5"}`; hasSample(samples, series) {
		t.Fatalf("cache hits must not report a simulate phase, got %s", series)
	}

	// The default face is unchanged: no Accept header still means JSON.
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("default /metricsz content type = %q, want JSON", ct)
	}
	var snap metricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if float64(snap.Simulated) != samples["btadt_scenarios_simulated_total"] {
		t.Fatalf("JSON simulated %d disagrees with exposition %v",
			snap.Simulated, samples["btadt_scenarios_simulated_total"])
	}
}

func hasSample(samples map[string]float64, series string) bool {
	_, ok := samples[series]
	return ok
}

// TestMetricszConcurrentScrape hammers both faces of /metricsz while a
// sweep is in flight — the race detector's view of snapshotting the
// histograms and counters mid-update.
func TestMetricszConcurrentScrape(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	m := serveTestMatrix(39)

	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metricsz", nil)
				if i%2 == 0 {
					req.Header.Set("Accept", "text/plain")
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("scrape during sweep: %s", resp.Status)
					return
				}
			}
		}(i)
	}
	submitSweep(t, ts.URL, m)
	close(done)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	samples, body := scrapeProm(t, ts.URL)
	if samples["btadt_scenarios_simulated_total"] != float64(matrixTotal(t, m)) {
		t.Fatalf("post-sweep exposition wrong:\n%s", body)
	}
}

// TestRequestIDMiddleware pins the ID contract: a valid client-supplied
// X-Request-Id is echoed, a missing or hostile one is replaced with a
// minted process-unique ID.
func TestRequestIDMiddleware(t *testing.T) {
	ts, _ := newTestServer(t, nil)

	get := func(id string) string {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.Header.Get("X-Request-Id")
	}

	if got := get("client-id.42"); got != "client-id.42" {
		t.Fatalf("valid client ID not echoed: got %q", got)
	}
	minted := get("")
	if minted == "" {
		t.Fatal("no request ID minted for a bare request")
	}
	if again := get(""); again == minted {
		t.Fatalf("two minted IDs collided: %q", minted)
	}
	if got := get(`bad "id" with spaces`); got == `bad "id" with spaces` || got == "" {
		t.Fatalf("hostile ID should be replaced, got %q", got)
	}
}
