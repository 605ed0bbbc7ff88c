package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"

	"blockadt/pkg/blockadt"
)

// cmdStats is the statistics pipeline: sweep a scenario matrix with
// metric collection enabled, fold the per-seed runs into per-config
// aggregates (streaming Welford/quantile accumulators, O(1) memory per
// config), and print mean/p50/p99 tables in table, JSON or CSV form.
// Like `btadt sweep`, every configuration derives an independent prng
// stream from the root seed, so the output is byte-identical at any
// -parallel value.
func cmdStats(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	var mf matrixFlags
	addMatrixFlags(fs, &mf)
	format := fs.String("format", "table", "output format: table, json or csv")
	var rf runFlags
	addRunFlags(fs, &rf, 8, "seed indices per matrix point (the aggregation dimension)",
		"comma-separated metric names (default: all registered)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch *format {
	case "table", "json", "csv":
	default:
		return fmt.Errorf("unknown format %q (want table, json or csv)", *format)
	}
	metricOrder := rf.metricNames()
	if len(metricOrder) == 0 {
		metricOrder = blockadt.MetricNames()
	}
	m, err := mf.matrix(rf.seeds, metricOrder)
	if err != nil {
		return err
	}
	// Validate before any output reaches stdout (same contract as sweep).
	configs, err := m.Configs()
	if err != nil {
		return err
	}
	if len(configs) == 0 {
		return errEmptyMatrix
	}
	runOpts, _, err := storeOptions(m, rf.storeDir, rf.resume, false)
	if err != nil {
		return err
	}

	agg := blockadt.NewSeedAggregator()
	total := 0
	for r, err := range blockadt.Stream(ctx, m, rf.parallel, runOpts...) {
		if err != nil {
			return err
		}
		agg.Add(r)
		total++
	}
	aggs := agg.Aggregates()

	switch *format {
	case "json":
		rep := &blockadt.StatsReport{RootSeed: m.RootSeed, Total: total, Configs: aggs}
		enc, err := rep.EncodeJSON()
		if err != nil {
			return err
		}
		os.Stdout.Write(enc)
	case "csv":
		fmt.Println("system,link,adversary,alpha,n,blocks,seeds,matched,metric,count,mean,std,min,max,p50,p99")
		for _, a := range aggs {
			for _, name := range metricOrder {
				s, ok := a.Metrics[name]
				if !ok {
					continue
				}
				fmt.Printf("%s,%s,%s,%s,%d,%d,%d,%d,%s,%d,%s,%s,%s,%s,%s,%s\n",
					a.System, a.Link, a.Adversary, fmtFloat(a.Alpha), a.N, a.Blocks, a.Seeds, a.Matched,
					name, s.Count, fmtFloat(s.Mean), fmtFloat(s.Std), fmtFloat(s.Min), fmtFloat(s.Max),
					fmtFloat(s.P50), fmtFloat(s.P99))
			}
		}
	default: // "table"; the format was validated before the sweep ran
		fmt.Print(blockadt.FormatStatsHeader())
		matched := 0
		for _, a := range aggs {
			fmt.Print(blockadt.FormatStatsRows(a, metricOrder))
			matched += a.Matched
		}
		fmt.Printf("\n%d configurations × %d seeds aggregated (%d runs, %d matched expectations) from root seed %d\n",
			len(aggs), rf.seeds, total, matched, m.RootSeed)
	}
	return nil
}

// fmtFloat renders a float in the shortest round-trip form — the same
// representation encoding/json uses, keeping CSV and JSON outputs
// consistent and deterministic.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
