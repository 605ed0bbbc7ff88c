package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"blockadt/pkg/blockadt"
	"blockadt/pkg/blockadt/serve"
)

// sweepArgs is the small metrics-enabled matrix the store/shard/diff CLI
// tests sweep. Systems are pinned so registrations made elsewhere cannot
// change the expansion.
func sweepArgs(extra ...string) []string {
	args := []string{"-systems", "Bitcoin,Hyperledger", "-links", "sync,async",
		"-adversaries", "none,selfish", "-seeds", "2", "-blocks", "10",
		"-seed", "11", "-metrics", "all", "-json"}
	return append(args, extra...)
}

// captureStdoutErr is captureStdout for commands that are expected to
// fail: it returns the output and the command error instead of fataling.
func captureStdoutErr(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	outc := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		outc <- string(b)
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	return <-outc, ferr
}

// TestSweepStoreResumeByteIdentical is the CLI reading of the tentpole
// contract: a cold store-backed sweep and a -resume re-run from the
// populated store emit byte-identical JSON, and the re-run simulates
// nothing.
func TestSweepStoreResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	cold := captureStdout(t, func() error { return cmdSweep(t.Context(), sweepArgs("-store", store)) })

	before := blockadt.ScenarioRuns()
	cached := captureStdout(t, func() error { return cmdSweep(t.Context(), sweepArgs("-store", store, "-resume")) })
	if ran := blockadt.ScenarioRuns() - before; ran != 0 {
		t.Fatalf("resumed sweep simulated %d scenarios, want 0", ran)
	}
	if cold != cached {
		t.Fatal("resumed sweep output is not byte-identical to the cold run")
	}

	plain := captureStdout(t, func() error { return cmdSweep(t.Context(), sweepArgs()) })
	if plain != cold {
		t.Fatal("store-backed sweep output diverged from the plain sweep")
	}
}

// TestSweepRefusesPopulatedStoreWithoutResume pins the explicit-resume
// contract: serving a pre-populated store silently would let a stale
// cache mask regressions, so it is an error without -resume.
func TestSweepRefusesPopulatedStoreWithoutResume(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	captureStdout(t, func() error { return cmdSweep(t.Context(), sweepArgs("-store", store)) })

	_, err := captureStdoutErr(t, func() error { return cmdSweep(t.Context(), sweepArgs("-store", store)) })
	if err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("populated store without -resume: got err %v, want a pointer to -resume", err)
	}

	if err := cmdSweep(t.Context(), sweepArgs("-resume")); err == nil || !strings.Contains(err.Error(), "-store") {
		t.Fatalf("-resume without -store: got err %v", err)
	}
	if err := cmdSweep(t.Context(), sweepArgs("-store-gc")); err == nil || !strings.Contains(err.Error(), "-store") {
		t.Fatalf("-store-gc without -store: got err %v", err)
	}
}

// TestSweepShardStoreUnionServesFullMatrix is the CLI merge path CI
// uses: run each shard into its own store, union the stores by copying
// object files, and serve the full matrix from the union — byte-identical
// to the unsharded sweep, with zero simulations.
func TestSweepShardStoreUnionServesFullMatrix(t *testing.T) {
	dir := t.TempDir()
	merged := filepath.Join(dir, "merged")
	var shardTotal int
	for i := 0; i < 2; i++ {
		shardStore := filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		out := captureStdout(t, func() error {
			return cmdSweep(t.Context(), sweepArgs("-shard", fmt.Sprintf("%d/2", i), "-store", shardStore))
		})
		shardTotal += strings.Count(out, `"config"`)
		// Union: copy the shard's objects tree into the merged store.
		err := filepath.Walk(filepath.Join(shardStore, "objects"), func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			rel, err := filepath.Rel(shardStore, path)
			if err != nil {
				return err
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			dst := filepath.Join(merged, rel)
			if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
				return err
			}
			return os.WriteFile(dst, raw, 0o644)
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	plain := captureStdout(t, func() error { return cmdSweep(t.Context(), sweepArgs()) })
	if got := strings.Count(plain, `"config"`); shardTotal != got {
		t.Fatalf("shards covered %d scenarios, full matrix has %d", shardTotal, got)
	}

	before := blockadt.ScenarioRuns()
	served := captureStdout(t, func() error { return cmdSweep(t.Context(), sweepArgs("-store", merged, "-resume")) })
	if ran := blockadt.ScenarioRuns() - before; ran != 0 {
		t.Fatalf("union-served sweep simulated %d scenarios, want 0", ran)
	}
	if served != plain {
		t.Fatal("union-served sweep is not byte-identical to the unsharded sweep")
	}

	// The same union behind `btadt serve`: the HTTP sweep simulates
	// nothing and its report is byte-identical to a plain Run.
	store, err := blockadt.OpenStore(merged)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Store: store, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	m := sweepMatrix()
	body, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	stream, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(stream)), "\n")
	var last struct {
		Summary *serve.SweepSummary `json:"summary"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Summary == nil {
		t.Fatalf("serve stream ended without a summary (err %v): %s", err, stream)
	}
	if last.Summary.Simulated != 0 || last.Summary.Total != shardTotal {
		t.Fatalf("serve over the union: %+v, want %d scenarios and 0 simulated", *last.Summary, shardTotal)
	}
	resp, err = http.Get(ts.URL + "/v1/sweeps/" + last.Summary.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	report, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep, err := blockadt.Run(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(report, want) {
		t.Fatalf("report served from the union is not byte-identical to a plain Run (%s)", resp.Status)
	}
}

// TestSweepShardRejectsBadSpec pins -shard parsing and validation.
func TestSweepShardRejectsBadSpec(t *testing.T) {
	for _, bad := range []string{"2", "a/2", "0/x", "2/2", "-1/2", "0/0"} {
		if err := cmdSweep(t.Context(), sweepArgs("-shard", bad)); err == nil {
			t.Errorf("-shard %q accepted", bad)
		}
	}
}

// TestSweepRejectsUnknownMetricListingRegistered is the satellite fix
// pin: an unknown -metrics name errors out before any output, and the
// message lists the registered metric names.
func TestSweepRejectsUnknownMetricListingRegistered(t *testing.T) {
	err := cmdSweep(t.Context(), sweepArgs("-metrics", "nope"))
	if err == nil {
		t.Fatal("sweep accepted an unregistered metric")
	}
	msg := err.Error()
	if !strings.Contains(msg, "registered:") {
		t.Fatalf("error does not list registered metrics: %v", err)
	}
	for _, name := range blockadt.MetricNames() {
		if !strings.Contains(msg, name) {
			t.Errorf("error does not mention registered metric %q: %v", name, err)
		}
	}
	// Same contract through stats' -metrics flag.
	if err := cmdStats(t.Context(), []string{"-metrics", "nope"}); err == nil || !strings.Contains(err.Error(), "registered:") {
		t.Fatalf("stats unknown-metric error does not list registered names: %v", err)
	}
}

// TestParallelFlagZeroAndNegative is the satellite audit pin: -parallel
// 0 and negative values select NumCPU at every layer and the output
// stays byte-identical to a serial run.
func TestParallelFlagZeroAndNegative(t *testing.T) {
	if got := blockadt.Parallelism(0); got != runtime.NumCPU() {
		t.Errorf("Parallelism(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := blockadt.Parallelism(-3); got != runtime.NumCPU() {
		t.Errorf("Parallelism(-3) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	serial := captureStdout(t, func() error { return cmdSweep(t.Context(), sweepArgs("-parallel", "1")) })
	for _, par := range []string{"0", "-3"} {
		out := captureStdout(t, func() error { return cmdSweep(t.Context(), sweepArgs("-parallel", par)) })
		if out != serial {
			t.Errorf("-parallel %s output diverged from -parallel 1", par)
		}
	}
}
