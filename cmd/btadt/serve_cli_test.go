package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"blockadt/pkg/blockadt"
)

// sweepMatrix is the Matrix sweepArgs describes — the store keys behind
// both must agree for the resume assertions below.
func sweepMatrix() blockadt.Matrix {
	return blockadt.Matrix{
		Systems:      []string{"Bitcoin", "Hyperledger"},
		Links:        []string{"sync", "async"},
		Adversaries:  []string{"none", "selfish"},
		Seeds:        2,
		RootSeed:     11,
		TargetBlocks: 10,
		Alpha:        0.34,
		Metrics:      blockadt.MetricNames(),
	}
}

// captureStderr redirects os.Stderr around fn.
func captureStderr(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	outc := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		outc <- string(b)
	}()
	ferr := fn()
	w.Close()
	os.Stderr = old
	out := <-outc
	if ferr != nil {
		t.Fatalf("command failed: %v (stderr %q)", ferr, out)
	}
	return out
}

// TestInterruptedSweepResumesCleanly is the signal-path regression: a
// store-backed table sweep cancelled mid-stream exits with
// context.Canceled, keeps every completed write, and a -resume re-run
// completes the matrix simulating only the remainder — byte-identical to
// an uninterrupted run.
func TestInterruptedSweepResumesCleanly(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	m := sweepMatrix()
	configs, err := m.Configs()
	if err != nil {
		t.Fatal(err)
	}
	total := len(configs)

	// Interrupt deterministically: cancel the command context the moment
	// the first table row reaches stdout — the CLI analogue of ^C during
	// a sweep.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(r)
		cancelled := false
		for sc.Scan() {
			// The header and its rule print before the sweep starts; a
			// line opening with a system name is the first real result.
			line := sc.Text()
			if !cancelled && (strings.HasPrefix(line, "Bitcoin") || strings.HasPrefix(line, "Hyperledger")) {
				cancelled = true
				cancel()
			}
		}
	}()
	args := []string{"-systems", "Bitcoin,Hyperledger", "-links", "sync,async",
		"-adversaries", "none,selfish", "-seeds", "2", "-blocks", "10",
		"-seed", "11", "-metrics", "all", "-parallel", "2", "-store", store}
	err = cmdSweep(ctx, args)
	w.Close()
	os.Stdout = old
	<-scanned

	if err == nil {
		// The sweep can win the race and finish before the cancellation
		// lands; the store is then simply complete. Only an error other
		// than the interruption is a failure.
		t.Log("sweep completed before the interrupt landed")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep: got %v, want context.Canceled", err)
	}

	sw, err := blockadt.Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	keys := sw.Keys()
	if len(keys) != total {
		t.Fatalf("matrix has %d store keys, want %d", len(keys), total)
	}
	reopened, err := blockadt.OpenStore(store)
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	for _, k := range keys {
		if reopened.Has(k) {
			cached++
		}
	}
	if cached == 0 {
		t.Fatalf("interrupted sweep persisted %d results, want > 0", cached)
	}

	// Resume completes exactly the remainder and reproduces the
	// uninterrupted output byte for byte.
	before := blockadt.ScenarioRuns()
	resumed := captureStdout(t, func() error { return cmdSweep(t.Context(), sweepArgs("-store", store, "-resume")) })
	if ran := blockadt.ScenarioRuns() - before; ran != uint64(total-cached) {
		t.Fatalf("resume simulated %d scenarios, want %d (= %d total - %d cached)", ran, total-cached, total, cached)
	}
	plain := captureStdout(t, func() error { return cmdSweep(t.Context(), sweepArgs()) })
	if resumed != plain {
		t.Fatal("resumed sweep output diverged from an uninterrupted run")
	}
}

// TestSweepVerboseStoreStats pins the `sweep -store -v` summary line:
// a cold run reports one miss and one put per scenario, a -resume run
// reports one hit per scenario.
func TestSweepVerboseStoreStats(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	m := sweepMatrix()
	configs, err := m.Configs()
	if err != nil {
		t.Fatal(err)
	}
	total := len(configs)

	var stderr string
	captureStdout(t, func() error {
		stderr = captureStderr(t, func() error { return cmdSweep(t.Context(), sweepArgs("-store", store, "-v")) })
		return nil
	})
	wantCold := fmt.Sprintf("%d misses, %d puts", total, total)
	if !strings.Contains(stderr, "store stats:") || !strings.Contains(stderr, wantCold) {
		t.Fatalf("cold -v stderr %q does not report %q", stderr, wantCold)
	}

	captureStdout(t, func() error {
		stderr = captureStderr(t, func() error {
			return cmdSweep(t.Context(), sweepArgs("-store", store, "-resume", "-v"))
		})
		return nil
	})
	wantWarm := fmt.Sprintf("%d hits, 0 misses, 0 puts", total)
	if !strings.Contains(stderr, wantWarm) {
		t.Fatalf("resume -v stderr %q does not report %q", stderr, wantWarm)
	}
}

// TestSweepPrintMatrix pins -print-matrix: the emitted JSON round-trips
// to the matrix the same flags would sweep (metrics pre-expanded), and
// invalid flags still fail instead of printing garbage.
func TestSweepPrintMatrix(t *testing.T) {
	out := captureStdout(t, func() error { return cmdSweep(t.Context(), sweepArgs("-print-matrix")) })
	var m blockadt.Matrix
	if err := json.Unmarshal([]byte(out), &m); err != nil {
		t.Fatalf("-print-matrix output is not a Matrix: %v\n%s", err, out)
	}
	want, err := blockadt.Expand(sweepMatrix())
	if err != nil {
		t.Fatal(err)
	}
	got, err := blockadt.Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	if gotFP, wantFP := got.Fingerprint(), want.Fingerprint(); gotFP != wantFP {
		t.Fatalf("-print-matrix fingerprint %s, want %s", gotFP, wantFP)
	}
	if err := cmdSweep(t.Context(), sweepArgs("-print-matrix", "-systems", "Dogecoin")); err == nil {
		t.Fatal("-print-matrix accepted an unregistered system")
	}
}

// TestServeCmdGracefulShutdown starts the service on an ephemeral port
// and cancels its context: cmdServe must drain and return nil. Without
// -store it must refuse to start at all.
func TestServeCmdGracefulShutdown(t *testing.T) {
	if err := cmdServe(t.Context(), []string{"-addr", "127.0.0.1:0"}); err == nil || !strings.Contains(err.Error(), "-store") {
		t.Fatalf("serve without -store: got %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- cmdServe(ctx, []string{"-addr", "127.0.0.1:0", "-store", t.TempDir()})
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cmdServe did not drain within 10s of cancellation")
	}
}
