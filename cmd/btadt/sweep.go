package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"blockadt/pkg/blockadt"
)

// cmdSweep runs the concurrent scenario-matrix engine: expand a
// (system × link × adversary × topology × n × seed) matrix, fan it out across the
// worker pool, and print the per-configuration verdict table or the
// canonical JSON consumed by SWEEP_baseline.json trend tracking. The
// table path streams: each row prints as its configuration completes, so
// arbitrarily large sweeps run in bounded memory.
//
// With -store the sweep is backed by the content-addressed run store:
// every computed result is persisted, and (with -resume) results already
// in the store are served without simulating — output is byte-identical
// either way. With -shard i/n only the i'th deterministic partition of
// the matrix runs; per-shard stores from the same matrix can be unioned
// with a plain file copy and served back as the full sweep (docs/runstore.md).
func cmdSweep(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	var mf matrixFlags
	addMatrixFlags(fs, &mf)
	jsonOut := fs.Bool("json", false, "emit canonical JSON instead of the table")
	shard := fs.String("shard", "", "run one deterministic partition of the matrix, as i/n (e.g. 0/2)")
	storeGC := fs.Bool("store-gc", false, "after the sweep, delete store entries outside this matrix's full expansion")
	var rf runFlags
	addRunFlags(fs, &rf, 1, "seed indices per matrix point",
		"comma-separated metric names to collect per scenario, or 'all'")
	verbose := fs.Bool("v", false, "print a periodic progress line (scenarios/sec, cache-hit ratio) to stderr; with -store, also the store's counters after the sweep")
	printMatrix := fs.Bool("print-matrix", false, "print the expanded matrix as JSON and exit without sweeping (input for `btadt serve` submissions)")
	traceFile := fs.String("trace", "", "write one NDJSON span per scenario (queue/store/simulate phase timings) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	m, err := mf.matrix(rf.seeds, rf.metricNames())
	if err != nil {
		return err
	}
	if *shard != "" {
		index, count, err := parseShard(*shard)
		if err != nil {
			return err
		}
		if m, err = m.Shard(index, count); err != nil {
			return err
		}
	}

	if *printMatrix {
		// Validate before printing, so a typo fails here, not at the
		// server. The emitted JSON round-trips through Matrix and is the
		// exact body `btadt serve` expects at POST /v1/sweeps.
		if _, err := m.Configs(); err != nil {
			return err
		}
		enc, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			return err
		}
		os.Stdout.Write(append(enc, '\n'))
		return nil
	}

	runOpts, store, err := storeOptions(m, rf.storeDir, rf.resume, *storeGC)
	if err != nil {
		return err
	}

	// The census feeds the -v progress line; the tracer (if any) dumps
	// per-scenario phase spans. Both observe the sweep from the side —
	// stdout output stays byte-identical with or without them.
	var census blockadt.Census
	runOpts = append(runOpts, blockadt.WithCensus(&census))
	var spans *blockadt.SpanWriter
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		spans = blockadt.NewSpanWriter(f)
		runOpts = append(runOpts, blockadt.WithTracer(spans))
	}
	closeTrace := func() error {
		if spans == nil {
			return nil
		}
		if err := spans.Close(); err != nil {
			return fmt.Errorf("writing -trace %s: %w", *traceFile, err)
		}
		fmt.Fprintf(os.Stderr, "trace %s: %d spans\n", *traceFile, spans.Count())
		return nil
	}
	runsBefore := blockadt.ScenarioRuns()

	if *jsonOut {
		stopProgress := startSweepProgress(*verbose, &census, -1)
		rep, err := blockadt.Run(m, rf.parallel, runOpts...)
		stopProgress()
		if err != nil {
			return err
		}
		if rep.Total == 0 {
			return errEmptyMatrix
		}
		reportStoreUse(rf.storeDir, rep.Total, runsBefore)
		reportStoreStats(store, *verbose)
		if err := closeTrace(); err != nil {
			return err
		}
		enc, err := rep.EncodeJSON()
		if err != nil {
			return err
		}
		os.Stdout.Write(enc)
		if rep.Matched != rep.Total {
			return fmt.Errorf("%d configurations missed their expected consistency level", rep.Total-rep.Matched)
		}
		return nil
	}

	// Validate the matrix before any table output reaches stdout: a typo
	// or a fully pruned cross product must fail with a clean error, not a
	// dangling header. The expanded sweep is the one that streams.
	sw, err := blockadt.Expand(m)
	if err != nil {
		return err
	}
	if sw.Len() == 0 {
		return errEmptyMatrix
	}
	var (
		total, matched int
		ticks          int64
		start          = time.Now()
	)
	fmt.Print(blockadt.FormatTableHeader())
	stopProgress := startSweepProgress(*verbose, &census, sw.Len())
	for r, err := range sw.Stream(ctx, rf.parallel, runOpts...) {
		if err != nil {
			stopProgress()
			return err
		}
		fmt.Print(blockadt.FormatRow(r))
		total++
		if r.Match {
			matched++
		}
		ticks += r.Ticks
	}
	stopProgress()
	reportStoreUse(rf.storeDir, total, runsBefore)
	reportStoreStats(store, *verbose)
	if err := closeTrace(); err != nil {
		return err
	}
	fmt.Printf("\n%d/%d configurations matched; %d virtual ticks in %.1fms across %d workers\n",
		matched, total, ticks, float64(time.Since(start).Nanoseconds())/1e6, blockadt.Parallelism(rf.parallel))
	if matched != total {
		return fmt.Errorf("%d configurations missed their expected consistency level", total-matched)
	}
	return nil
}

// startSweepProgress starts the -v progress reporter: a time-based line
// on stderr every two seconds with throughput and cache-hit ratio read
// from the sweep's census. Time-based (not per-result) and stderr-only,
// so stdout stays byte-identical and quiet sweeps cost nothing. total
// < 0 means unknown (the -json path, which expands inside Run). The
// returned stop func is idempotent enough for the error paths: call it
// once when the sweep ends.
func startSweepProgress(enabled bool, census *blockadt.Census, total int) func() {
	if !enabled {
		return func() {}
	}
	start := time.Now()
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		ticker := time.NewTicker(2 * time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				completed := census.Simulated() + census.CacheHits() + census.Coalesced()
				elapsed := time.Since(start).Seconds()
				rate := 0.0
				if elapsed > 0 {
					rate = float64(completed) / elapsed
				}
				ratio := 0.0
				if completed > 0 {
					ratio = 100 * float64(census.CacheHits()) / float64(completed)
				}
				if total >= 0 {
					fmt.Fprintf(os.Stderr, "sweep: %d/%d scenarios, %.1f/sec, %.0f%% cache hits\n",
						completed, total, rate, ratio)
				} else {
					fmt.Fprintf(os.Stderr, "sweep: %d scenarios, %.1f/sec, %.0f%% cache hits\n",
						completed, rate, ratio)
				}
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// reportStoreUse prints the store-backed sweep's exact census to stderr
// after the run: how many scenarios were actually simulated (measured by
// the ScenarioRuns counter, not the advisory preflight) and how many the
// store served. CI's merge job gates on the "0 scenarios simulated" form
// of this line — the real zero-simulation invariant, not a prediction.
func reportStoreUse(storeDir string, total int, runsBefore uint64) {
	if storeDir == "" {
		return
	}
	simulated := blockadt.ScenarioRuns() - runsBefore
	fmt.Fprintf(os.Stderr, "store %s: %d scenarios simulated, %d served from cache\n",
		storeDir, simulated, uint64(total)-simulated)
}

// storeOptions assembles the run-store options shared by sweep and
// stats, enforcing the resume contract: a sweep never silently serves a
// pre-populated store. Without -resume, cached entries for this sweep
// are an error (point -store somewhere fresh, or opt in); with it, the
// hit count goes to stderr so table/JSON output stays canonical. The
// returned handle (nil without -store) is the one the sweep runs
// against, so its Stats reflect exactly this command's traffic.
func storeOptions(m blockadt.Matrix, storeDir string, resume, storeGC bool) ([]blockadt.RunOption, *blockadt.RunStore, error) {
	return storeOptionsMulti([]blockadt.Matrix{m}, storeDir, resume, storeGC)
}

// storeOptionsMulti is storeOptions over several matrices at once — the
// shape `btadt hypothesize` needs, where one experiment sweeps one
// matrix per arm against a single store. Keys shared between arms (a
// common baseline scenario, say) are deduplicated so the preflight
// counts each stored result once, matching what the engine will
// actually fetch.
func storeOptionsMulti(ms []blockadt.Matrix, storeDir string, resume, storeGC bool) ([]blockadt.RunOption, *blockadt.RunStore, error) {
	if storeDir == "" {
		if resume {
			return nil, nil, fmt.Errorf("-resume requires -store")
		}
		if storeGC {
			return nil, nil, fmt.Errorf("-store-gc requires -store")
		}
		return nil, nil, nil
	}
	store, err := blockadt.OpenStore(storeDir)
	if err != nil {
		return nil, nil, err
	}
	seen := make(map[string]bool)
	cached, total := 0, 0
	for _, m := range ms {
		sw, err := blockadt.Expand(m)
		if err != nil {
			return nil, nil, err
		}
		for _, k := range sw.Keys() {
			if seen[k] {
				continue
			}
			seen[k] = true
			total++
			if store.Has(k) {
				cached++
			}
		}
	}
	if cached > 0 && !resume {
		return nil, nil, fmt.Errorf("store %s already holds %d of this sweep's %d results; pass -resume to serve them from cache, or use a fresh -store directory", storeDir, cached, total)
	}
	if resume {
		fmt.Fprintf(os.Stderr, "resuming from %s: %d/%d scenarios cached, %d to simulate\n", storeDir, cached, total, total-cached)
	}
	opts := []blockadt.RunOption{blockadt.WithRunStore(store)}
	if storeGC {
		opts = append(opts, blockadt.WithStoreGC())
	}
	return opts, store, nil
}

// reportStoreStats prints the store handle's operation counters to
// stderr — the `-v` summary line behind a store-backed sweep.
func reportStoreStats(store *blockadt.RunStore, verbose bool) {
	if store == nil || !verbose {
		return
	}
	st := store.Stats()
	fmt.Fprintf(os.Stderr, "store stats: %d hits, %d misses, %d puts, %d bytes read, %d bytes written\n",
		st.Hits, st.Misses, st.Puts, st.BytesRead, st.BytesWritten)
}

// parseShard parses the -shard flag's i/n form.
func parseShard(s string) (index, count int, err error) {
	idxStr, cntStr, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("bad -shard %q: want i/n (e.g. 0/2)", s)
	}
	index, err = strconv.Atoi(strings.TrimSpace(idxStr))
	if err != nil {
		return 0, 0, fmt.Errorf("bad -shard index %q", idxStr)
	}
	count, err = strconv.Atoi(strings.TrimSpace(cntStr))
	if err != nil {
		return 0, 0, fmt.Errorf("bad -shard count %q", cntStr)
	}
	return index, count, nil
}

// errEmptyMatrix reports a matrix whose every combination was pruned.
var errEmptyMatrix = fmt.Errorf("matrix expanded to 0 configurations: every requested combination was pruned (the non-sync links and non-complete topologies run only on the PoW systems, and selfish only on Bitcoin under sync on the complete graph)")

// splitList splits a comma-separated flag, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
