package blockadt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
)

// EncodeJSON renders the report in its canonical form: indented JSON with
// struct-declaration field order and wall-clock fields omitted. Two sweeps
// of the same matrix produce byte-identical encodings regardless of
// parallelism — this is the representation the determinism regression
// test compares and the BENCH_*.json trend tracking ingests.
func (r *Report) EncodeJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeReport parses a sweep report from its canonical JSON (the
// output of Report.EncodeJSON / `btadt sweep -json`).
func DecodeReport(raw []byte) (*Report, error) {
	var rep Report
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("blockadt: not a sweep report: %w", err)
	}
	if rep.Results == nil && rep.Total == 0 && !strings.Contains(string(raw), "\"results\"") {
		return nil, fmt.Errorf("blockadt: not a sweep report: no results field")
	}
	return &rep, nil
}

// FormatTableHeader renders the sweep table's header line and rule.
func FormatTableHeader() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-9s %-8s %-10s %3s %5s %-9s %-9s %6s %6s %6s %8s %6s\n",
		"system", "link", "adv", "topo", "n", "seed", "expected", "measured", "blocks", "forks", "reorg", "fairTVD", "match")
	fmt.Fprintln(&b, strings.Repeat("-", 114))
	return b.String()
}

// FormatRow renders one result as a sweep-table row.
func FormatRow(r Result) string {
	match := "yes"
	if !r.Match {
		match = "NO"
	}
	topo := r.Config.Topology
	if topo == "" {
		topo = TopoComplete
	}
	return fmt.Sprintf("%-12s %-9s %-8s %-10s %3d %5d %-9s %-9s %6d %6d %6d %8.4f %6s\n",
		r.Config.System, r.Config.Link, r.Config.Adversary, topo, r.Config.N, r.Config.SeedIndex,
		r.Expected, r.Level, r.Blocks, r.Forks, r.MaxReorg, r.FairnessTVD, match)
}

// FormatTable renders the results as an aligned text table, one row per
// scenario.
func FormatTable(results []Result) string {
	var b strings.Builder
	b.WriteString(FormatTableHeader())
	for _, r := range results {
		b.WriteString(FormatRow(r))
	}
	return b.String()
}
