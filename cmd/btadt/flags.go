package main

import (
	"flag"
	"fmt"
	"strconv"

	"blockadt/pkg/blockadt"
)

// runFlags bundles the flags every sweep-backed command shares — seed
// count, worker pool, run store, metric selection — so sweep, stats and
// hypothesize register them once, with identical names, semantics and
// error text, instead of three drifting copies.
type runFlags struct {
	seeds    int
	parallel int
	storeDir string
	resume   bool
	metrics  string
}

// addRunFlags registers the shared flags on fs. The seed default and
// the seeds/metrics usage strings vary per command (sweep defaults to
// one seed, stats to eight, hypothesize to the experiment's own).
func addRunFlags(fs *flag.FlagSet, f *runFlags, seedsDefault int, seedsUsage, metricsUsage string) {
	fs.IntVar(&f.seeds, "seeds", seedsDefault, seedsUsage)
	fs.IntVar(&f.parallel, "parallel", 0, "worker pool size (<1 = NumCPU)")
	fs.StringVar(&f.storeDir, "store", "", "back the sweep with the content-addressed run store at this directory")
	fs.BoolVar(&f.resume, "resume", false, "serve scenarios already in -store from cache instead of failing on a pre-populated store")
	fs.StringVar(&f.metrics, "metrics", "", metricsUsage)
}

// metricNames resolves the -metrics flag: empty → nil (the command
// picks its default), "all" → every registered metric, else the
// comma-split list. Unknown names are not resolved here — they fail in
// Matrix.Configs with the registry's own UnknownNameError, so the
// error text is identical across commands.
func (f *runFlags) metricNames() []string {
	switch f.metrics {
	case "":
		return nil
	case "all":
		return blockadt.MetricNames()
	default:
		return splitList(f.metrics)
	}
}

// matrixFlags bundles the scenario-matrix flags sweep and stats share:
// the axes, the root seed, the block target and the adversary's share.
type matrixFlags struct {
	systems, links, adversaries, topologies, ns string
	rootSeed                                    uint64
	blocks                                      int
	alpha                                       float64
}

// addMatrixFlags registers the matrix flags on fs.
func addMatrixFlags(fs *flag.FlagSet, f *matrixFlags) {
	fs.StringVar(&f.systems, "systems", "", "comma-separated system names (default: all registered)")
	fs.StringVar(&f.links, "links", "sync", "comma-separated link models: sync,async,psync,lossy,partition,jitter")
	fs.StringVar(&f.adversaries, "adversaries", "none", "comma-separated adversaries: none,selfish")
	fs.StringVar(&f.topologies, "topologies", "complete", "comma-separated dissemination topologies: complete,gossip3,clustered2")
	fs.StringVar(&f.ns, "n", "8", "comma-separated process counts")
	fs.Uint64Var(&f.rootSeed, "seed", 42, "root seed every per-config stream derives from")
	fs.IntVar(&f.blocks, "blocks", 30, "target committed blocks per run")
	fs.Float64Var(&f.alpha, "alpha", 0.34, "selfish adversary merit share")
}

// matrix builds the Matrix the flags describe, sweeping seeds seed
// indices per point and collecting the named metrics.
func (f *matrixFlags) matrix(seeds int, metrics []string) (blockadt.Matrix, error) {
	m := blockadt.Matrix{
		Systems:      splitList(f.systems),
		Links:        splitList(f.links),
		Adversaries:  splitList(f.adversaries),
		Topologies:   splitList(f.topologies),
		Seeds:        seeds,
		RootSeed:     f.rootSeed,
		TargetBlocks: f.blocks,
		Alpha:        f.alpha,
		Metrics:      metrics,
	}
	for _, s := range splitList(f.ns) {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			return blockadt.Matrix{}, fmt.Errorf("bad process count %q", s)
		}
		m.Ns = append(m.Ns, n)
	}
	return m, nil
}
