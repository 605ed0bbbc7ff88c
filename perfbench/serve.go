package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"blockadt/pkg/blockadt"
	"blockadt/pkg/blockadt/serve"
)

const (
	// cachedSeeds is how many CI-matrix root seeds set-up puts in the store.
	cachedSeeds = 4
	// freshEvery makes one request in freshEvery a Table 1 matrix at a
	// root seed no earlier request used, so the server simulates it and
	// writes the results to its store.
	freshEvery = 20
	// freshTag separates the fresh requests' root seeds from every other
	// root seed the workload draws.
	freshTag = 1 << 32
)

// table1Matrix is the Table 1 matrix (every registered system, one
// honest synchronous run each) with every metric collected.
func table1Matrix(root uint64) blockadt.Matrix {
	m := blockadt.Table1(8, 30, root)
	m.Metrics = blockadt.MetricNames()
	return m
}

// sweep is one matrix a client submits: its request body, and the NDJSON
// result lines and matched count a correct server streams back for it.
type sweep struct {
	body    []byte
	lines   [][]byte
	matched int
}

// newSweep encodes m and the results of rep, a local blockadt.Run of m,
// the way the server encodes them.
func newSweep(m blockadt.Matrix, rep *blockadt.Report) (sweep, error) {
	body, err := json.Marshal(m)
	if err != nil {
		return sweep{}, err
	}
	s := sweep{body: body, matched: rep.Matched}
	for _, r := range rep.Results {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(r); err != nil {
			return sweep{}, err
		}
		s.lines = append(s.lines, bytes.TrimSuffix(buf.Bytes(), []byte("\n")))
	}
	return s, nil
}

// localSweep runs m locally and returns it as a sweep.
func localSweep(m blockadt.Matrix) (sweep, error) {
	rep, err := blockadt.Run(m, nproc)
	if err != nil {
		return sweep{}, err
	}
	return newSweep(m, rep)
}

// freshSweep is what a fresh request streamed, kept for verify.
type freshSweep struct {
	root    uint64
	lines   [][]byte
	matched int
}

// serveSession is an in-process serve.Server on a loopback listener,
// backed by a fresh store under the work directory.
type serveSession struct {
	seed   uint64
	dir    string
	url    string
	hs     *http.Server
	served chan error
	client *http.Client
	cached []sweep

	mu    sync.Mutex
	fresh []freshSweep
	// sum totals the summaries of every request the session sent.
	sum serve.SweepSummary
}

// setupServeCached starts the server, fills its store with the CI matrix
// at cachedSeeds root seeds through the HTTP API, and checks each
// streamed result against a local run.
func setupServeCached(o options) (session, error) {
	dir, err := os.MkdirTemp(o.work, "serve-cached-")
	if err != nil {
		return nil, err
	}
	s := &serveSession{seed: o.seed, dir: dir}
	if err := s.start(); err != nil {
		s.close()
		return nil, err
	}
	ms, reps, err := matchingRuns(o.seed, 3, cachedSeeds, nproc, ciMatrix)
	if err != nil {
		s.close()
		return nil, err
	}
	for i, m := range ms {
		sw, err := newSweep(m, reps[i])
		if err != nil {
			s.close()
			return nil, err
		}
		s.cached = append(s.cached, sw)
	}
	// The first pass simulates and stores, the second is served from the
	// store: both must stream the local run's results.
	for pass := 0; pass < 2; pass++ {
		for i := range s.cached {
			if _, _, err := s.post(s.cached[i].body, &s.cached[i]); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	return s, nil
}

func (s *serveSession) start() error {
	store, err := blockadt.OpenStore(s.dir)
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{Store: store, Parallelism: 1})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: nproc}}
	return nil
}

func (s *serveSession) do(r int) (int, error) {
	if r%freshEvery == freshEvery-1 {
		root := mix(s.seed, freshTag+uint64(r))
		body, err := json.Marshal(table1Matrix(root))
		if err != nil {
			return 0, err
		}
		sum, lines, err := s.post(body, nil)
		if err != nil {
			return 0, err
		}
		s.mu.Lock()
		s.fresh = append(s.fresh, freshSweep{root: root, lines: lines, matched: sum.Matched})
		s.mu.Unlock()
		return sum.Total, nil
	}
	sw := &s.cached[r%len(s.cached)]
	sum, _, err := s.post(sw.body, sw)
	return sum.Total, err
}

// post submits one matrix and reads the whole NDJSON stream. The result
// lines and the matched count must equal want's; with want nil they are
// returned for a later check instead. The closing summary must account
// for every scenario as simulated, served from the store or coalesced.
func (s *serveSession) post(body []byte, want *sweep) (serve.SweepSummary, [][]byte, error) {
	var sum serve.SweepSummary
	resp, err := s.client.Post(s.url+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return sum, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return sum, nil, fmt.Errorf("POST /v1/sweeps: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var (
		got      [][]byte
		summary  bool
		mismatch error
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(line, []byte(`{"summary":`)) {
			var wrap struct {
				Summary serve.SweepSummary `json:"summary"`
			}
			if err := json.Unmarshal(line, &wrap); err != nil {
				return sum, nil, fmt.Errorf("summary line: %w", err)
			}
			sum, summary = wrap.Summary, true
			continue
		}
		if bytes.HasPrefix(line, []byte(`{"error":`)) {
			return sum, nil, fmt.Errorf("server: %s", line)
		}
		i := len(got)
		got = append(got, append([]byte(nil), line...))
		if want != nil && mismatch == nil && (i >= len(want.lines) || !bytes.Equal(line, want.lines[i])) {
			mismatch = fmt.Errorf("result line %d differs from the local run", i)
		}
	}
	if err := sc.Err(); err != nil {
		return sum, nil, err
	}
	switch {
	case !summary:
		return sum, nil, errors.New("stream ended without a summary")
	case mismatch != nil:
		return sum, nil, mismatch
	case want != nil && len(got) != len(want.lines):
		return sum, nil, fmt.Errorf("%d result lines, want %d", len(got), len(want.lines))
	case want != nil && sum.Matched != want.matched:
		return sum, nil, fmt.Errorf("%d of %d scenarios matched their expected level, the local run %d",
			sum.Matched, sum.Total, want.matched)
	case len(got) != sum.Total:
		return sum, nil, fmt.Errorf("%d result lines, summary says %d", len(got), sum.Total)
	case sum.Simulated+sum.CacheHits+sum.Coalesced != uint64(sum.Total):
		return sum, nil, fmt.Errorf("summary: simulated %d + cache hits %d + coalesced %d != total %d",
			sum.Simulated, sum.CacheHits, sum.Coalesced, sum.Total)
	}
	s.mu.Lock()
	s.sum.Total += sum.Total
	s.sum.Simulated += sum.Simulated
	s.sum.CacheHits += sum.CacheHits
	s.sum.Coalesced += sum.Coalesced
	s.mu.Unlock()
	return sum, got, nil
}

// verify compares every fresh request's streamed results and matched
// count with a local run of the same matrix. A fresh root seed is not
// vetted like the cached ones: about one Table 1 matrix in a hundred has
// a short-run verdict off its expected level (a fork-free Bitcoin run is
// SC), and the server must then report exactly that.
func (s *serveSession) verify() (int, error) {
	failed := 0
	for _, f := range s.fresh {
		want, err := localSweep(table1Matrix(f.root))
		if err != nil {
			return failed, err
		}
		if len(want.lines) != len(f.lines) || want.matched != f.matched {
			failed++
			continue
		}
		for i := range want.lines {
			if !bytes.Equal(want.lines[i], f.lines[i]) {
				failed++
				break
			}
		}
	}
	return failed, nil
}

func (s *serveSession) replayMatrix() blockadt.Matrix {
	return table1Matrix(mix(s.seed, freshTag-1))
}

// close stops the server, waits for it to exit and removes its store.
func (s *serveSession) close() error {
	var err error
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = s.hs.Shutdown(ctx)
		cancel()
		if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		s.client.CloseIdleConnections()
		s.hs = nil
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// totals returns the summed census of every request the session sent.
func (s *serveSession) totals() serve.SweepSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum
}

// metricsz fetches the server's JSON metrics.
func (s *serveSession) metricsz() (metricsSnapshot, error) {
	var snap metricsSnapshot
	resp, err := s.client.Get(s.url + "/metricsz")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /metricsz: %s", resp.Status)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// metricsSnapshot is the part of /metricsz the traced pass reads.
type metricsSnapshot struct {
	Store     blockadt.StoreStats       `json:"store"`
	Latencies []blockadt.LatencySummary `json:"latencies"`
}
