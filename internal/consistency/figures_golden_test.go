package consistency

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blockadt/internal/figures"
	"blockadt/internal/history"
)

// update regenerates the golden files: go test ./internal/consistency -update
var update = flag.Bool("update", false, "rewrite the golden files")

// TestFiguresGolden byte-gates the checkers on the hand-built histories:
// Figures 2–4 with the tails the figure tests use and the Stall witness.
// Each history prints its level and, per SC and EC property, whether it
// holds, how many constraints it checked and how many it broke, so a
// change to what a property exempts moves this file even when no verdict
// flips. Regenerate deliberately with
//
//	go test ./internal/consistency -run TestFiguresGolden -update
//
// and review the diff.
func TestFiguresGolden(t *testing.T) {
	hs := []struct {
		name string
		h    *history.History
	}{
		{"Fig2(12)", figures.Fig2(12)},
		{"Fig3(12)", figures.Fig3(12)},
		{"Fig4(12)", figures.Fig4(12)},
		{"Stall(3)", figures.Stall(3)},
	}
	var b strings.Builder
	for _, c := range hs {
		cls := Classify(c.h, figOpts)
		fmt.Fprintf(&b, "%s level=%s\n", c.name, cls.Level)
		seen := map[string]bool{}
		for _, v := range append(cls.SC.Verdicts, cls.EC.Verdicts...) {
			if seen[v.Property] {
				continue
			}
			seen[v.Property] = true
			fmt.Fprintf(&b, "  %s satisfied=%v checked=%d violations=%d\n", v.Property, v.Satisfied, v.Checked, v.TotalViolations)
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "figures.golden")
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
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("checker verdicts drifted from %s (regenerate with -update and review the diff)\ngot:\n%s", path, got)
	}
}
