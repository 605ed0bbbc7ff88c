package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// update regenerates the golden files: go test ./cmd/btadt -update
var update = flag.Bool("update", false, "rewrite the golden files")

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns everything it printed. The reader drains concurrently so
// outputs larger than the pipe buffer cannot deadlock the writer.
func captureStdout(t *testing.T, fn func() error) string {
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
	out := <-outc
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput so far:\n%s", ferr, out)
	}
	return out
}

// checkGolden compares the output against testdata/<name>.golden,
// rewriting the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output diverged from %s (regenerate with -update if intended)\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestListGolden pins the full `btadt list` output — and with it the
// registration order and presence of every registry, including the
// metric and psync entries the generic enumeration must pick up.
func TestListGolden(t *testing.T) {
	checkGolden(t, "list", captureStdout(t, func() error { return cmdList(nil) }))
}

// TestClassifyGolden pins the Table 1 regeneration at fixed parameters:
// every system's verdict, oracle, selector and run summary, so a refactor
// cannot silently flip a consistency verdict or perturb a deterministic
// simulation.
func TestClassifyGolden(t *testing.T) {
	for _, tc := range []struct{ golden, blocks string }{
		{"classify", "20"},
		{"table1", "30"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			out := captureStdout(t, func() error {
				return cmdClassify([]string{"-n", "8", "-blocks", tc.blocks, "-seed", "42"})
			})
			checkGolden(t, tc.golden, out)
		})
	}
}

// TestClassifyRejectsNegativeN: a negative process count is an error
// naming the parameter, not a panic inside the simulator.
func TestClassifyRejectsNegativeN(t *testing.T) {
	err := cmdClassify([]string{"-n", "-3"})
	if err == nil || !strings.Contains(err.Error(), "process count n must be >= 0") {
		t.Fatalf("classify -n -3: err = %v, want the process-count error", err)
	}
}

// TestStatsGolden pins the stats pipeline's table and JSON outputs on a
// small honest+adversarial matrix.
func TestStatsGolden(t *testing.T) {
	args := []string{"-systems", "Bitcoin", "-adversaries", "none,selfish",
		"-seeds", "3", "-blocks", "15", "-seed", "7"}
	table := captureStdout(t, func() error { return cmdStats(t.Context(), args) })
	checkGolden(t, "stats_table", table)

	jsonOut := captureStdout(t, func() error { return cmdStats(t.Context(), append(args, "-format", "json")) })
	checkGolden(t, "stats_json", jsonOut)
}

// TestStatsByteIdenticalAcrossParallelism is the CLI-level determinism
// regression the acceptance criteria require: `btadt stats` output is
// byte-identical at -parallel 1 and -parallel NumCPU, in every format.
func TestStatsByteIdenticalAcrossParallelism(t *testing.T) {
	base := []string{"-systems", "Bitcoin,Hyperledger", "-adversaries", "none,selfish",
		"-seeds", "3", "-blocks", "12", "-seed", "5"}
	for _, format := range []string{"table", "json", "csv"} {
		serial := captureStdout(t, func() error {
			return cmdStats(t.Context(), append(base, "-format", format, "-parallel", "1"))
		})
		parallel := captureStdout(t, func() error {
			return cmdStats(t.Context(), append(base, "-format", format, "-parallel", fmt.Sprint(runtime.NumCPU())))
		})
		if serial != parallel {
			t.Errorf("%s output differs between -parallel 1 and -parallel %d", format, runtime.NumCPU())
		}
	}
}

// TestStatsRejectsBadInput covers the fail-before-output contract.
func TestStatsRejectsBadInput(t *testing.T) {
	if err := cmdStats(t.Context(), []string{"-metrics", "nope"}); err == nil {
		t.Error("stats accepted an unregistered metric")
	}
	if err := cmdStats(t.Context(), []string{"-systems", "Dogecoin"}); err == nil {
		t.Error("stats accepted an unregistered system")
	}
	if err := cmdStats(t.Context(), []string{"-format", "xml", "-systems", "Bitcoin", "-seeds", "1", "-blocks", "5"}); err == nil {
		t.Error("stats accepted an unknown format")
	}
	if err := cmdStats(t.Context(), []string{"-systems", "Hyperledger", "-links", "async"}); err == nil {
		t.Error("stats accepted a fully pruned matrix")
	}
}
