package serve

// Serve-side observability: request IDs, structured request logging,
// and the Prometheus text face of /metricsz. The engine-side spans and
// histograms live in internal/obs and are threaded through the sweeps
// via blockadt.WithTracer; this file is the HTTP skin over them.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"blockadt/internal/obs"
	"blockadt/pkg/blockadt"
)

type ctxKey int

const requestIDKey ctxKey = iota

// RequestID returns the request ID the middleware assigned (or honored)
// for this request — the value echoed in the X-Request-Id response
// header and stamped into every scenario span the request produced.
// Empty outside a middleware-wrapped request.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// validRequestID accepts client-supplied IDs that are safe to echo and
// log: short and made of unambiguous token characters.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// nextRequestID mints a process-unique ID: a random per-process prefix
// plus a sequence number, so IDs from two servers never collide in
// a merged log stream.
func (s *Server) nextRequestID() string {
	return s.reqPrefix + "-" + strconv.FormatUint(s.reqSeq.Add(1), 10)
}

// newRequestPrefix draws the per-process ID prefix.
func newRequestPrefix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// A failed entropy read degrades to a fixed prefix: IDs remain
		// unique within the process, which is what handlers rely on.
		return "r-0"
	}
	return "r-" + hex.EncodeToString(b[:])
}

// statusWriter captures the response status and byte count for the
// request log while preserving http.Flusher for NDJSON streaming.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) statusCode() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// middleware assigns (or honors) the request ID, echoes it in the
// response, and writes one structured log line per request. Scrape and
// liveness endpoints log at Debug so a tight Prometheus scrape loop
// does not flood an Info-level log.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if !validRequestID(id) {
			id = s.nextRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		ctx := context.WithValue(r.Context(), requestIDKey, id)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		level := slog.LevelInfo
		if r.URL.Path == "/healthz" || r.URL.Path == "/metricsz" {
			level = slog.LevelDebug
		}
		s.log.LogAttrs(ctx, level, "request",
			slog.String("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.statusCode()),
			slog.Int64("bytes", sw.bytes),
			slog.Duration("elapsed", time.Since(start)),
		)
	})
}

// requestTracer builds the per-request engine tracer: spans flow into
// the server's process-wide latency histograms, tagged with the request
// ID that submitted them.
func (s *Server) requestTracer(ctx context.Context) blockadt.Tracer {
	return blockadt.TaggedTracer(RequestID(ctx), s.lat)
}

// wantsPrometheus implements /metricsz content negotiation: the JSON
// face stays the default (no Accept header, */*, application/json);
// `Accept: text/plain` — what Prometheus and OpenMetrics scrapers send
// — selects the exposition format.
func wantsPrometheus(r *http.Request) bool {
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "openmetrics-text")
}

// writePrometheus renders the full snapshot in exposition format
// v0.0.4. Series names are stable API — docs/observability.md documents
// them, CI asserts the core ones, and the golden test in internal/obs
// pins the line format itself.
func writePrometheus(w http.ResponseWriter, snap metricsSnapshot) {
	w.Header().Set("Content-Type", obs.PromContentType)
	p := obs.NewProm(w)

	bi := snap.Build
	p.Gauge("btadt_build_info", "Build metadata; the value is always 1.", 1,
		obs.Label{Name: "version", Value: bi.Version},
		obs.Label{Name: "goversion", Value: bi.GoVersion},
		obs.Label{Name: "engine", Value: bi.Engine})
	p.Gauge("btadt_uptime_seconds", "Seconds since the server started.", snap.UptimeSeconds)

	p.Counter("btadt_scenario_runs_total",
		"Process-wide simulator invocations (blockadt.ScenarioRuns); unchanged between scrapes means everything was served from cache.",
		float64(snap.ScenarioRuns))
	p.Counter("btadt_scenarios_completed_total",
		"Results streamed to clients, any provenance.",
		float64(snap.ScenariosCompleted))
	p.Counter("btadt_scenarios_simulated_total",
		"Scenarios this server actually simulated for requests.",
		float64(snap.Simulated))
	p.Counter("btadt_scenarios_cache_hits_total",
		"Scenarios served from the content-addressed run store.",
		float64(snap.CacheHits))
	p.Counter("btadt_scenarios_coalesced_total",
		"Scenarios satisfied by another request's in-flight simulation.",
		float64(snap.Coalesced))

	p.Gauge("btadt_inflight_sweeps", "Sweep submissions currently streaming.", float64(snap.InflightSweeps))
	p.Gauge("btadt_inflight_scenarios", "Scenario simulations in flight right now.", float64(snap.InflightScenarios))
	p.Gauge("btadt_sweeps", "Sweeps retained in the polling registry.", float64(snap.Sweeps))

	p.Gauge("btadt_store_entries", "Entries in the content-addressed run store.", float64(snap.StoreEntries))
	p.Counter("btadt_store_hits_total", "Run-store read hits through this handle.", float64(snap.Store.Hits))
	p.Counter("btadt_store_misses_total", "Run-store read misses through this handle.", float64(snap.Store.Misses))
	p.Counter("btadt_store_puts_total", "Run-store writes through this handle.", float64(snap.Store.Puts))
	p.Counter("btadt_store_bytes_read_total", "Bytes read from the run store.", float64(snap.Store.BytesRead))
	p.Counter("btadt_store_bytes_written_total", "Bytes written to the run store.", float64(snap.Store.BytesWritten))

	p.Latencies("btadt_scenario_phase_seconds",
		"Per-scenario execution latency by phase (queue, store_get, simulate, store_put, total) and outcome (simulated, cache-hit, coalesced, skipped).",
		snap.Latencies)
	if err := p.Err(); err != nil {
		// The client went away mid-scrape; nothing useful left to do.
		return
	}
}
