// Command btadt is the reproduction driver for "Blockchain Abstract Data
// Type" (Anceaume et al., PPoPP'19 poster / arXiv:1802.09877). It is built
// entirely on the public façade (blockadt/pkg/blockadt); the `internal/`
// packages are not a supported import path, and CI rejects any direct use.
//
// Usage:
//
//	btadt list
//	    Print every registered system, oracle, selector, link, adversary
//	    and metric with one-line descriptions.
//
//	btadt classify   [-n 8] [-blocks 30] [-seed 42] [-system NAME] [-v]
//	    Regenerate Table 1: simulate each blockchain system and classify
//	    its recorded history against the BT consistency criteria.
//
//	btadt sweep      [-systems a,b] [-links sync,async,psync] [-adversaries none,selfish]
//	                 [-n 8,16] [-seeds 4] [-seed 42] [-parallel 0] [-json] [-metrics m1,m2|all]
//	                 [-shard i/n] [-store DIR] [-resume] [-store-gc] [-trace out.ndjson] [-v]
//	    Expand and run a scenario matrix across the worker pool; every
//	    configuration gets an independent derived prng stream, so the
//	    output is identical at any -parallel value. -store backs the
//	    sweep with the content-addressed run store (computed results are
//	    persisted; with -resume, cached ones are served without
//	    simulating — byte-identical output either way); -shard i/n runs
//	    one deterministic partition of the matrix for CI fan-out.
//	    -trace writes one NDJSON span per scenario with queue/store/
//	    simulate phase timings; -v adds a periodic progress line on
//	    stderr. Neither changes the sweep output by a byte.
//
//	btadt diff       [-tol 0.05] old.json new.json
//	    Compare two sweep JSON reports per configuration and metric,
//	    under a relative tolerance for numeric fields. Non-zero exit on
//	    drift — the CI regression gate against SWEEP_baseline.json. Also
//	    accepts two hypothesize verdict.json files (recognized by their
//	    "hypothesis" discriminator) and diffs them field by field.
//
//	btadt hypothesize [-name EXP | -all | -list] [-dir hypotheses] [-json]
//	                 [-seeds 0] [-parallel 0] [-metrics m1,m2|all]
//	                 [-store DIR] [-resume]
//	    Run a registered hypothesis experiment: sweep each arm through
//	    the deterministic engine, pair results seed by seed, and issue a
//	    confirmed/refuted/inconclusive verdict for the claimed class
//	    (Deterministic, Dominance, Monotonicity, Equivalence) gated by
//	    an exact paired sign test. Writes -dir/<name>/FINDINGS.md and
//	    verdict.json (or streams canonical JSON with -json); refuted
//	    verdicts exit non-zero. Cache-first under -store -resume, like
//	    sweep. See docs/hypotheses.md.
//
//	btadt stats      [-systems a,b] [-links sync,async,psync] [-adversaries none,selfish]
//	                 [-n 8] [-seeds 8] [-seed 42] [-metrics m1,m2] [-format table|json|csv]
//	                 [-parallel 0] [-store DIR] [-resume]
//	    Sweep a matrix with metric collection enabled and aggregate each
//	    configuration across its seeds (mean/std/min/max/p50/p99 per
//	    metric, streaming accumulators). Byte-identical at any -parallel
//	    value, like sweep.
//
//	btadt serve      [-addr :8423] -store DIR [-parallel 0] [-max-body BYTES]
//	                 [-max-sweeps N] [-drain 30s] [-log-level info]
//	                 [-log-format text|json] [-debug-addr :6060]
//	    Run the cache-first sweep service: POST /v1/sweeps streams a
//	    matrix's results back as NDJSON, and identical (even concurrent)
//	    resubmissions are served from the shared run store without
//	    re-simulating. Serving a union of `sweep -shard i/n -store`
//	    stores answers a matrix swept across machines without
//	    simulating (docs/runstore.md). Every request is logged with a
//	    request ID (echoed as X-Request-Id); /metricsz answers JSON by
//	    default and Prometheus exposition under `Accept: text/plain`;
//	    -debug-addr opts into live pprof on a separate listener.
//	    SIGINT/SIGTERM drains gracefully. See docs/serve.md for the API
//	    and docs/observability.md for the telemetry surface.
//
//	btadt version
//	    Print the build triple: module version, Go toolchain, and the
//	    engine version that namespaces every cached result.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"blockadt/pkg/blockadt"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// One signal-aware context feeds every long-running command: the
	// first SIGINT/SIGTERM cancels it (sweeps stop admitting scenarios
	// and exit; serve drains connections), the second signal kills the
	// process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList(os.Args[2:])
	case "classify":
		err = cmdClassify(os.Args[2:])
	case "fairness":
		err = cmdFairness(os.Args[2:])
	case "selfish":
		err = cmdSelfish(os.Args[2:])
	case "sweep":
		err = cmdSweep(ctx, os.Args[2:])
	case "stats":
		err = cmdStats(ctx, os.Args[2:])
	case "hypothesize":
		err = cmdHypothesize(ctx, os.Args[2:])
	case "serve":
		err = cmdServe(ctx, os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "version":
		err = cmdVersion()
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "btadt: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			// Interrupted by signal after a clean teardown: every
			// completed scenario's object is already on disk, so the
			// next -resume picks up where this run stopped.
			fmt.Fprintln(os.Stderr, "btadt: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "btadt:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: btadt <command> [flags]

commands:
  list         print every registered system, oracle, selector, link, adversary and metric
  classify     regenerate Table 1 (system → consistency classification)
  fairness     analyze proposer fairness against the merit parameter
  selfish      run the selfish-mining chain-quality experiment
  sweep        run a concurrent scenario matrix (system × link × adversary × n × seed)
               [-shard i/n] [-store DIR] [-resume] for incremental / CI-sharded sweeps
  stats        sweep a matrix with metric collection and print per-config aggregates
  hypothesize  run a statistical A-vs-B experiment and issue a confirmed/refuted verdict
  serve        run the cache-first sweep service over a run store
  diff         compare two sweep (or hypothesize) JSON reports with a per-field tolerance (CI gate)
  version      print the build triple: module version, Go toolchain, engine version`)
}

// cmdVersion prints the same build triple /healthz reports and the
// Prometheus btadt_build_info series labels: enough to tell which
// binary (and which run-store namespace) produced an artifact.
func cmdVersion() error {
	bi := blockadt.Build()
	fmt.Printf("btadt %s\ngo %s\nengine %s\n", bi.Version, bi.GoVersion, bi.Engine)
	return nil
}

func cmdClassify(args []string) error {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	n := fs.Int("n", 8, "number of processes")
	blocks := fs.Int("blocks", 30, "target committed blocks per run")
	seed := fs.Uint64("seed", 42, "simulation seed")
	system := fs.String("system", "", "simulate a single system (default: all)")
	verbose := fs.Bool("v", false, "print the detailed consistency reports")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := blockadt.SimParams{N: *n, TargetBlocks: *blocks, Seed: *seed}

	var rows []blockadt.Table1Row
	if *system != "" {
		row, err := blockadt.ClassifySystem(*system, p)
		if err != nil {
			return err
		}
		rows = []blockadt.Table1Row{row}
	} else {
		rows = blockadt.ClassifyTable(p)
	}
	fmt.Print(blockadt.FormatTable1(rows))
	if *verbose {
		for _, r := range rows {
			fmt.Printf("\n── %s ──\n%s%s", r.System, r.SC, r.EC)
		}
	}
	for _, r := range rows {
		if !r.Match {
			return fmt.Errorf("%s classified %s, paper says %s", r.System, r.Measured, r.Expected)
		}
	}
	return nil
}
