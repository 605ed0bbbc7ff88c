package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"blockadt/pkg/blockadt/hypothesis"
)

// update regenerates the golden files: go test ./cmd/btadt -update
var update = flag.Bool("update", false, "rewrite the golden files")

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns everything it printed, failing the test if fn fails.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	out, err := captureStdoutErr(t, fn)
	if err != nil {
		t.Fatalf("command failed: %v\noutput so far:\n%s", err, out)
	}
	return out
}

// captureStdoutErr is captureStdout for commands whose error is part of
// the expected outcome: it returns the output and fn's error. The reader
// drains concurrently so outputs larger than the pipe buffer cannot
// deadlock the writer.
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

// checkGolden compares the output against testdata/<name>.golden,
// rewriting the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	checkGoldenFile(t, filepath.Join("testdata", name+".golden"), got)
}

// checkGoldenFile compares the output against the golden file at path,
// rewriting it under -update. A mismatch reports the first differing
// line.
func checkGoldenFile(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
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
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gotLines) && i < len(wantLines) && gotLines[i] == wantLines[i] {
		i++
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of output>"
	}
	t.Errorf("output diverged from %s at line %d (regenerate with -update if intended)\n got: %s\nwant: %s",
		path, i+1, line(gotLines), line(wantLines))
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

// TestCommittedOutputsGolden byte-gates the committed outputs that no
// other golden covers: the JSON of two sweeps, whose error must name
// the documented number of missed configurations (the topology sweep
// misses none and returns no error), and every directory
// under hypotheses/, as `hypothesize -all` writes it. The 20-seed
// adversity sweep is the gate that sees the netsim's order of same-tick
// far-heap and ring events; the topology sweep is the only gated one
// with a topology axis. Regenerate deliberately with
//
//	go test ./cmd/btadt -run TestCommittedOutputsGolden -update
//
// and review the diff (`btadt diff` renders a sweep's drift per config).
func TestCommittedOutputsGolden(t *testing.T) {
	sweep := func(golden string, misses int, args ...string) func(*testing.T) map[string]string {
		return func(t *testing.T) map[string]string {
			out, err := captureStdoutErr(t, func() error { return cmdSweep(t.Context(), append(args, "-json")) })
			var got, want string
			if err != nil {
				got = err.Error()
			}
			if misses > 0 {
				want = fmt.Sprintf("%d configurations missed their expected consistency level", misses)
			}
			if got != want {
				t.Errorf("sweep error = %q, want %q", got, want)
			}
			return map[string]string{filepath.Join("testdata", golden+".golden"): out}
		}
	}
	hypotheses := func(t *testing.T) map[string]string {
		dir := t.TempDir()
		captureStdout(t, func() error { return cmdHypothesize(t.Context(), []string{"-all", "-dir", dir}) })
		committed, err := os.ReadDir(hypothesesDir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range committed {
			names = append(names, e.Name())
		}
		out := map[string]string{}
		var registered []string
		for _, e := range hypothesis.All() {
			registered = append(registered, e.Name)
			for _, file := range []string{"verdict.json", "FINDINGS.md"} {
				got, err := os.ReadFile(filepath.Join(dir, e.Name, file))
				if err != nil {
					t.Fatal(err)
				}
				out[filepath.Join(hypothesesDir, e.Name, file)] = string(got)
			}
		}
		slices.Sort(registered)
		if !*update && !slices.Equal(names, registered) {
			t.Errorf("%s holds %v, but the registered experiments are %v", hypothesesDir, names, registered)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		run  func(*testing.T) map[string]string
	}{
		{"sweep_adversity", sweep("sweep_adversity", 1, "-links", "partition,psync,jitter,async", "-seeds", "20")},
		{"sweep_topology", sweep("sweep_topology", 0, "-topologies", "gossip3,clustered2",
			"-links", "sync,async,psync,lossy,partition,jitter", "-seeds", "2")},
		{"hypotheses", hypotheses},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for path, got := range tc.run(t) {
				checkGoldenFile(t, path, got)
			}
		})
	}
}

// hypothesesDir holds the committed hypothesis outcomes at the
// repository root.
const hypothesesDir = "../../hypotheses"

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
