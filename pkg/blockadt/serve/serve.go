// Package serve is the cache-first sweep service: a long-running
// HTTP/JSON server that accepts scenario matrices, streams per-scenario
// results back as newline-delimited JSON while they complete, and dedups
// identical work three ways —
//
//   - across requests, through the content-addressed run store (a
//     scenario swept once is a cache hit forever under the same engine
//     version);
//   - across concurrent requests, through a process-wide Singleflight
//     keyed on the scenario's store key (n identical in-flight
//     submissions simulate each scenario once, not n times);
//   - across machines, through the run store itself: each machine runs
//     `btadt sweep -shard i/n -store DIR`, the objects/ trees are copied
//     into one store, and a server over the union serves the whole
//     matrix without simulating (docs/runstore.md).
//
// Endpoints (all JSON unless noted):
//
//	POST /v1/sweeps                       submit a Matrix; streams NDJSON results + summary
//	GET  /v1/sweeps/{id}                  poll a sweep; ETag/304 once done
//	GET  /v1/sweeps/{id}/report           canonical sweep report (byte-identical to `btadt sweep -json`)
//	GET  /healthz                         liveness (text)
//	GET  /metricsz                        scenarios/sec, cache counters, gauges
//
// The server holds no per-sweep result buffers: streaming rides
// blockadt.Stream (bounded reorder window), polling state is O(1) per
// sweep, and reports are re-served from the store rather than retained
// in memory — thousands of concurrent clients see bounded memory. The
// service is unauthenticated and meant for a trusted network, like a CI
// fleet or a lab cluster.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blockadt/pkg/blockadt"
)

// Config parameterizes New. Store is required; everything else has a
// serviceable default.
type Config struct {
	// Store is the shared content-addressed run store every sweep is
	// served from and persisted into.
	Store *blockadt.RunStore
	// Parallelism is the per-sweep worker pool size (<1 selects NumCPU).
	Parallelism int
	// MaxBodyBytes bounds matrix submissions (default 1 MiB). Larger
	// bodies are rejected with 413.
	MaxBodyBytes int64
	// MaxSweeps caps the polling registry; the oldest finished sweeps
	// are evicted past it (default 1024). Evicted sweeps lose polling
	// state only — their results stay in the store.
	MaxSweeps int
	// Logger receives the structured request log (one line per request,
	// tagged with the request ID). nil discards — handlers never log
	// through a nil check.
	Logger *slog.Logger
}

func (c Config) withDefaults() (Config, error) {
	if c.Store == nil {
		return c, errors.New("serve: Config.Store is required")
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxSweeps <= 0 {
		c.MaxSweeps = 1024
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	return c, nil
}

// discardHandler drops every record (slog.DiscardHandler needs go1.24;
// the module targets go1.23).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// Server is the sweep service: HTTP handlers plus the sweep registry.
// Create with New, mount with Handler.
type Server struct {
	cfg    Config
	flight *blockadt.Singleflight
	mux    *http.ServeMux
	log    *slog.Logger
	// lat is the process-wide latency histogram set every request's
	// scenario spans fold into — the data behind the Prometheus
	// btadt_scenario_phase_seconds summary.
	lat       *blockadt.Latencies
	reqSeq    atomic.Uint64
	reqPrefix string

	mu     sync.Mutex
	sweeps map[string]*sweepState
	order  []string // sweep ids, oldest first, for eviction

	started        time.Time
	inflightSweeps atomic.Int64
	completed      atomic.Uint64 // results streamed, any provenance
	simulated      atomic.Uint64
	cacheHits      atomic.Uint64
	coalesced      atomic.Uint64
}

// sweepState is the O(1) polling record of one submitted sweep.
type sweepState struct {
	ID        string
	Matrix    blockadt.Matrix
	Status    string // "running", "done", "failed"
	Total     int
	Completed int
	Simulated uint64
	CacheHits uint64
	Coalesced uint64
	Err       string
	CreatedAt time.Time
	UpdatedAt time.Time
}

// sweepStatus is the poll-endpoint wire form.
type sweepStatus struct {
	ID        string `json:"id"`
	Status    string `json:"status"`
	Total     int    `json:"total"`
	Completed int    `json:"completed"`
	Simulated uint64 `json:"simulated"`
	CacheHits uint64 `json:"cacheHits"`
	Coalesced uint64 `json:"coalesced"`
	Error     string `json:"error,omitempty"`
	CreatedAt string `json:"createdAt"`
	UpdatedAt string `json:"updatedAt"`
}

// SweepSummary is the final NDJSON line of a streamed sweep — the
// request-level census of how its scenarios were satisfied.
type SweepSummary struct {
	ID        string `json:"id"`
	Total     int    `json:"total"`
	Matched   int    `json:"matched"`
	Ticks     int64  `json:"ticks"`
	Simulated uint64 `json:"simulated"`
	CacheHits uint64 `json:"cacheHits"`
	Coalesced uint64 `json:"coalesced"`
	Skipped   uint64 `json:"skipped"`
}

// New builds a Server around the given store.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		flight:    blockadt.NewSingleflight(),
		log:       cfg.Logger,
		lat:       blockadt.NewLatencies(),
		reqPrefix: newRequestPrefix(),
		sweeps:    map[string]*sweepState{},
		started:   time.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handlePoll)
	mux.HandleFunc("GET /v1/sweeps/{id}/report", s.handleReport)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	s.mux = mux
	return s, nil
}

// Handler returns the server's HTTP handler: the route mux wrapped in
// the request-ID + structured-logging middleware.
func (s *Server) Handler() http.Handler { return s.middleware(s.mux) }

// jsonError writes a {"error": ...} body with the given status.
func jsonError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeMatrix reads and validates a matrix body under the given byte
// limit. Failures are written to w (400 for malformed or invalid, 413
// for oversized) and reported via ok=false.
func (s *Server) decodeMatrix(w http.ResponseWriter, r *http.Request, raw json.RawMessage) (m blockadt.Matrix, total int, ok bool) {
	if err := json.Unmarshal(raw, &m); err != nil {
		jsonError(w, http.StatusBadRequest, "malformed matrix JSON: %v", err)
		return m, 0, false
	}
	// Configs validates every dimension against the registries; its
	// unknown-name errors carry the registered alternatives, which is
	// exactly what a 400 should teach the client. For those the body
	// also breaks the failure out into machine-readable fields, so a
	// client can match on kind/name instead of parsing the message.
	configs, err := m.Configs()
	if err != nil {
		var unknown *blockadt.UnknownNameError
		if errors.As(err, &unknown) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(struct {
				Error      string   `json:"error"`
				Kind       string   `json:"kind"`
				Name       string   `json:"name"`
				Registered []string `json:"registered"`
			}{fmt.Sprintf("invalid matrix: %v", err), unknown.Kind, unknown.Name, unknown.Registered})
			return m, 0, false
		}
		jsonError(w, http.StatusBadRequest, "invalid matrix: %v", err)
		return m, 0, false
	}
	if len(configs) == 0 {
		jsonError(w, http.StatusBadRequest,
			"matrix expanded to 0 configurations: every requested combination was pruned")
		return m, 0, false
	}
	return m, len(configs), true
}

// readBody drains the request body under limit, translating the
// over-limit error to 413.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			jsonError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the configured limit of %d bytes", tooLarge.Limit)
		} else {
			jsonError(w, http.StatusBadRequest, "reading request body: %v", err)
		}
		return nil, false
	}
	return raw, true
}

// parallelism resolves an optional ?parallel=N override.
func (s *Server) parallelism(w http.ResponseWriter, r *http.Request) (int, bool) {
	q := r.URL.Query().Get("parallel")
	if q == "" {
		return s.cfg.Parallelism, true
	}
	n, err := strconv.Atoi(q)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "bad parallel %q: want an integer", q)
		return 0, false
	}
	return n, true
}

// register records a sweep for polling, reusing the slot on resubmission
// and evicting the oldest finished sweeps past the registry cap.
func (s *Server) register(id string, m blockadt.Matrix, total int) *sweepState {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.sweeps[id]
	if !ok {
		st = &sweepState{ID: id, Matrix: m, Total: total, CreatedAt: now}
		s.sweeps[id] = st
		s.order = append(s.order, id)
		s.evictLocked()
	}
	st.Status = "running"
	st.Completed = 0
	st.Simulated, st.CacheHits, st.Coalesced = 0, 0, 0
	st.Err = ""
	st.UpdatedAt = now
	return st
}

// evictLocked drops the oldest finished sweeps past MaxSweeps. Running
// sweeps are never evicted; their polling state is live.
func (s *Server) evictLocked() {
	for len(s.order) > s.cfg.MaxSweeps {
		evicted := false
		for i, id := range s.order {
			if st := s.sweeps[id]; st != nil && st.Status != "running" {
				delete(s.sweeps, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything is running; let the registry run hot
		}
	}
}

// handleSubmit is POST /v1/sweeps: validate, then stream NDJSON results
// in matrix-expansion order as they complete, closing with a summary
// line. The client's disconnect cancels the request context, which tears
// the sweep down promptly (completed results stay persisted).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	raw, ok := readBody(w, r, s.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	m, total, ok := s.decodeMatrix(w, r, raw)
	if !ok {
		return
	}
	parallelism, ok := s.parallelism(w, r)
	if !ok {
		return
	}
	id, err := m.Fingerprint()
	if err != nil { // Configs passed, so this cannot happen; fail loudly anyway
		jsonError(w, http.StatusInternalServerError, "fingerprint: %v", err)
		return
	}

	st := s.register(id, m, total)
	s.inflightSweeps.Add(1)
	defer s.inflightSweeps.Add(-1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Sweep-Id", id)
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)

	var census blockadt.Census
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	var matched int
	var ticks int64
	completed := 0
	for res, err := range blockadt.Stream(r.Context(), m, parallelism,
		blockadt.WithRunStore(s.cfg.Store),
		blockadt.WithSingleflight(s.flight),
		blockadt.WithCensus(&census),
		blockadt.WithTracer(s.requestTracer(r.Context()))) {
		if err != nil {
			enc.Encode(map[string]string{"error": err.Error()})
			s.finishSweep(st, &census, completed, "failed", err.Error())
			return
		}
		if err := enc.Encode(res); err != nil {
			// The client went away mid-write; the next iteration's
			// context check tears the sweep down.
			s.finishSweep(st, &census, completed, "failed", "client disconnected")
			return
		}
		completed++
		if res.Match {
			matched++
		}
		ticks += res.Ticks
		s.completed.Add(1)
		s.noteProgress(st, completed)
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc.Encode(struct {
		Summary SweepSummary `json:"summary"`
	}{SweepSummary{
		ID: id, Total: total, Matched: matched, Ticks: ticks,
		Simulated: census.Simulated(), CacheHits: census.CacheHits(),
		Coalesced: census.Coalesced(), Skipped: census.Skipped(),
	}})
	s.finishSweep(st, &census, completed, "done", "")
}

// noteProgress bumps a sweep's completion counter for pollers.
func (s *Server) noteProgress(st *sweepState, completed int) {
	s.mu.Lock()
	st.Completed = completed
	st.UpdatedAt = time.Now()
	s.mu.Unlock()
}

// finishSweep folds a finished (or torn down) sweep's census into the
// polling state and the server-lifetime counters.
func (s *Server) finishSweep(st *sweepState, census *blockadt.Census, completed int, status, errMsg string) {
	s.simulated.Add(census.Simulated())
	s.cacheHits.Add(census.CacheHits())
	s.coalesced.Add(census.Coalesced())
	s.mu.Lock()
	st.Status = status
	st.Completed = completed
	st.Simulated = census.Simulated()
	st.CacheHits = census.CacheHits()
	st.Coalesced = census.Coalesced()
	st.Err = errMsg
	st.UpdatedAt = time.Now()
	s.mu.Unlock()
}

// etagFor is the strong validator of a finished sweep: the matrix
// fingerprint, which already folds in {EngineVersion, root seed, every
// scenario's canonical key and derived seed, metric set} — precisely the
// inputs that make a cached result servable.
func etagFor(id string) string { return `"` + id + `"` }

// handlePoll is GET /v1/sweeps/{id}. A finished sweep carries a strong
// ETag; If-None-Match then turns polling into a free 304 until the
// engine version (and with it the fingerprint) changes.
func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	st, ok := s.sweeps[id]
	var snapshot sweepStatus
	if ok {
		snapshot = sweepStatus{
			ID: st.ID, Status: st.Status, Total: st.Total, Completed: st.Completed,
			Simulated: st.Simulated, CacheHits: st.CacheHits, Coalesced: st.Coalesced,
			Error:     st.Err,
			CreatedAt: st.CreatedAt.UTC().Format(time.RFC3339),
			UpdatedAt: st.UpdatedAt.UTC().Format(time.RFC3339),
		}
	}
	s.mu.Unlock()
	if !ok {
		jsonError(w, http.StatusNotFound, "unknown sweep %q", id)
		return
	}
	if snapshot.Status == "done" {
		w.Header().Set("ETag", etagFor(id))
		if matchesETag(r.Header.Get("If-None-Match"), etagFor(id)) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(snapshot)
}

// handleReport is GET /v1/sweeps/{id}/report: the canonical sweep
// report, byte-identical to `btadt sweep -json` of the same matrix. The
// report is re-served from the store instead of being buffered per sweep
// — for a finished sweep that is a zero-simulation cache read.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	st, ok := s.sweeps[id]
	var status string
	var m blockadt.Matrix
	if ok {
		status, m = st.Status, st.Matrix
	}
	s.mu.Unlock()
	if !ok {
		jsonError(w, http.StatusNotFound, "unknown sweep %q", id)
		return
	}
	if status != "done" {
		jsonError(w, http.StatusConflict, "sweep %q is %s; the report is available once it is done", id, status)
		return
	}
	if matchesETag(r.Header.Get("If-None-Match"), etagFor(id)) {
		w.Header().Set("ETag", etagFor(id))
		w.WriteHeader(http.StatusNotModified)
		return
	}
	parallelism, ok := s.parallelism(w, r)
	if !ok {
		return
	}
	var census blockadt.Census
	rep, err := blockadt.Run(m, parallelism,
		blockadt.WithRunStore(s.cfg.Store),
		blockadt.WithSingleflight(s.flight),
		blockadt.WithCensus(&census),
		blockadt.WithTracer(s.requestTracer(r.Context())))
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "serving report: %v", err)
		return
	}
	s.simulated.Add(census.Simulated())
	s.cacheHits.Add(census.CacheHits())
	s.coalesced.Add(census.Coalesced())
	enc, err := rep.EncodeJSON()
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "encoding report: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", etagFor(id))
	w.Write(enc)
}

// matchesETag implements the subset of If-None-Match a cache-first
// service needs: "*" or a comma-separated list of (possibly weak)
// validators compared against one strong ETag.
func matchesETag(header, etag string) bool {
	if header == "" {
		return false
	}
	if header == "*" {
		return true
	}
	for _, candidate := range splitCSV(header) {
		if candidate == etag || candidate == "W/"+etag {
			return true
		}
	}
	return false
}

// handleHealthz is the liveness probe. The first line is always "ok";
// the build triple follows so a fleet check can tell which binary (and
// which engine version, hence which cache namespace) answered.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	bi := blockadt.Build()
	fmt.Fprintln(w, "ok")
	fmt.Fprintln(w, "version:", bi.Version)
	fmt.Fprintln(w, "go:", bi.GoVersion)
	fmt.Fprintln(w, "engine:", bi.Engine)
}

// metricsSnapshot is the /metricsz wire form. Existing fields are
// stable API; observability additions (build, latencies) only ever
// append so old decoders keep working.
type metricsSnapshot struct {
	UptimeSeconds      float64                   `json:"uptimeSeconds"`
	ScenarioRuns       uint64                    `json:"scenarioRuns"`
	ScenariosCompleted uint64                    `json:"scenariosCompleted"`
	ScenariosPerSecond float64                   `json:"scenariosPerSecond"`
	Simulated          uint64                    `json:"simulated"`
	CacheHits          uint64                    `json:"cacheHits"`
	Coalesced          uint64                    `json:"coalesced"`
	InflightSweeps     int64                     `json:"inflightSweeps"`
	InflightScenarios  int                       `json:"inflightScenarios"`
	Sweeps             int                       `json:"sweeps"`
	StoreEntries       int                       `json:"storeEntries"`
	Store              blockadt.StoreStats       `json:"store"`
	Build              blockadt.BuildInfo        `json:"build"`
	Latencies          []blockadt.LatencySummary `json:"latencies,omitempty"`
}

// handleMetricsz is GET /metricsz: the operational counters a load test
// or a dashboard scrapes. ScenarioRuns is the process-wide simulation
// counter (blockadt.ScenarioRuns) — unchanged between two scrapes means
// everything in between was served from cache. The default face is
// JSON; `Accept: text/plain` selects Prometheus exposition v0.0.4 of
// the same snapshot.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	uptime := time.Since(s.started).Seconds()
	completed := s.completed.Load()
	perSecond := 0.0
	if uptime > 0 {
		perSecond = float64(completed) / uptime
	}
	s.mu.Lock()
	sweeps := len(s.sweeps)
	s.mu.Unlock()
	snap := metricsSnapshot{
		UptimeSeconds:      uptime,
		ScenarioRuns:       blockadt.ScenarioRuns(),
		ScenariosCompleted: completed,
		ScenariosPerSecond: perSecond,
		Simulated:          s.simulated.Load(),
		CacheHits:          s.cacheHits.Load(),
		Coalesced:          s.coalesced.Load(),
		InflightSweeps:     s.inflightSweeps.Load(),
		InflightScenarios:  s.flight.Inflight(),
		Sweeps:             sweeps,
		StoreEntries:       s.cfg.Store.Len(),
		Store:              s.cfg.Store.Stats(),
		Build:              blockadt.Build(),
		Latencies:          s.lat.Snapshot(),
	}
	if wantsPrometheus(r) {
		writePrometheus(w, snap)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(snap)
}

// splitCSV splits a comma-separated header value, trimming whitespace
// and dropping empties.
func splitCSV(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
