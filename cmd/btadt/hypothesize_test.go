package main

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"blockadt/pkg/blockadt/hypothesis"
)

// TestHypothesizeJSONByteIdenticalAcrossParallelism pins the CLI's
// determinism contract at the -json boundary: serial and NumCPU-wide
// runs emit the same bytes.
func TestHypothesizeJSONByteIdenticalAcrossParallelism(t *testing.T) {
	run := func(parallel string) string {
		return captureStdout(t, func() error {
			return cmdHypothesize(t.Context(), []string{"-name", "fork-rate-vs-delta", "-json", "-parallel", parallel})
		})
	}
	serial := run("1")
	wide := run("0")
	if serial != wide {
		t.Fatalf("hypothesize -json differs between -parallel 1 and %d", runtime.NumCPU())
	}
	var out hypothesis.Outcome
	if err := json.Unmarshal([]byte(serial), &out); err != nil {
		t.Fatalf("stdout is not one canonical outcome document: %v", err)
	}
	if out.Verdict != hypothesis.Confirmed || out.Measured != hypothesis.Dominance {
		t.Fatalf("got verdict %s measured %s, want confirmed Dominance", out.Verdict, out.Measured)
	}
}

// TestHypothesizeSelectionErrors pins the flag-validation surface: a
// missing selection, a conflicting one, and an unknown name (which must
// surface the registry's typed message listing the alternatives).
func TestHypothesizeSelectionErrors(t *testing.T) {
	if err := cmdHypothesize(t.Context(), nil); err == nil || !strings.Contains(err.Error(), "-name") {
		t.Fatalf("no selection: got %v, want guidance mentioning -name", err)
	}
	if err := cmdHypothesize(t.Context(), []string{"-all", "-name", "x"}); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("conflicting selection: got %v", err)
	}
	err := cmdHypothesize(t.Context(), []string{"-name", "no-such-experiment"})
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "no-such-experiment"`) ||
		!strings.Contains(err.Error(), "registered:") {
		t.Fatalf("unknown name: got %v, want the registry's unknown-experiment message", err)
	}
}
