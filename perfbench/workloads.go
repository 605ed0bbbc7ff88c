package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"

	"blockadt/pkg/blockadt"
)

// nproc is the host's CPU count. No workload runs more callers,
// connections or engine workers than this in total.
var nproc = runtime.NumCPU()

// workload is one named load the benchmark can run.
type workload struct {
	name string
	// callers is the number of closed-loop clients.
	callers int
	// setup builds the workload's inputs from the seed and checks the
	// program's outputs on them.
	setup func(o options) (session, error)
}

// session is a set-up workload, ready to take requests.
type session interface {
	// do sends request r and checks its output. It returns the number of
	// scenarios the request completed.
	do(r int) (int, error)
	// verify makes the checks do could not make while timed and returns
	// how many requests failed them.
	verify() (int, error)
	// replayMatrix is what the traced pass replays layer by layer.
	replayMatrix() blockadt.Matrix
	close() error
}

var workloads = []workload{
	{name: "ci-sweep", callers: 1, setup: setupCISweep},
	// One caller: two would pair the systems differently from run to run
	// and double the heap, which made peak memory and latency unsteady.
	{name: "long-chain", callers: 1, setup: setupLongChain},
	{name: "serve-cached", callers: nproc, setup: setupServeCached},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// mix derives an independent 64-bit value from a seed and a tag (the
// splitmix64 finaliser), so every input a workload draws from its seed
// gets its own root seed.
func mix(seed, tag uint64) uint64 {
	z := seed + (tag+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// ciMatrix is the canonical CI matrix (SWEEP_MATRIX in ci.yml) at the
// given root seed: 6 links × {none, selfish}, pruned to 36 scenarios.
func ciMatrix(root uint64) blockadt.Matrix {
	return blockadt.Matrix{
		Links:        []string{"sync", "async", "psync", "lossy", "partition", "jitter"},
		Adversaries:  []string{"none", "selfish"},
		Ns:           []int{8},
		Seeds:        2,
		TargetBlocks: 30,
		RootSeed:     root,
		Metrics:      blockadt.MetricNames(),
	}
}

// ciScenarios is the size of the CI matrix after pruning.
const ciScenarios = 36

// longChainSystems are the long-chain workload's systems — both
// proof-of-work selectors and two committee systems — with their Table 1
// consistency levels, as the paper states them.
var longChainSystems = []struct{ name, level string }{
	{"Bitcoin", "EC"},
	{"Ethereum", "EC"},
	{"Algorand", "SC"},
	{"Hyperledger", "SC"},
}

// longChainMatrix runs the long-chain systems on synchronous links to
// 600 blocks, twenty times the CI matrix's chain length.
func longChainMatrix(root uint64, systems ...string) blockadt.Matrix {
	return blockadt.Matrix{
		Systems:      systems,
		TargetBlocks: 600,
		RootSeed:     root,
		Metrics:      blockadt.MetricNames(),
	}
}

// engineSession runs requests as blockadt.Run calls in this process.
// Request r runs matrices[r % len(matrices)] and must reproduce want for
// that matrix.
type engineSession struct {
	matrices    []blockadt.Matrix
	want        [][]blockadt.Result
	parallelism int
	replay      blockadt.Matrix

	// opts and observe are set by the traced pass only.
	opts    []blockadt.RunOption
	observe func(*blockadt.Report)
}

func (s *engineSession) do(r int) (int, error) {
	i := r % len(s.matrices)
	rep, err := blockadt.Run(s.matrices[i], s.parallelism, s.opts...)
	if err != nil {
		return 0, err
	}
	if err := checkReport(rep, s.want[i]); err != nil {
		return 0, err
	}
	if s.observe != nil {
		s.observe(rep)
	}
	return rep.Total, nil
}

func (s *engineSession) verify() (int, error)          { return 0, nil }
func (s *engineSession) replayMatrix() blockadt.Matrix { return s.replay }
func (s *engineSession) close() error                  { return nil }

// checkReport fails a report whose verdicts do not all match or whose
// results differ from the reference run of the same matrix.
func checkReport(rep *blockadt.Report, want []blockadt.Result) error {
	if rep.Matched != rep.Total {
		return fmt.Errorf("%d of %d scenarios matched their expected level", rep.Matched, rep.Total)
	}
	return sameResults(rep.Results, want)
}

// sameResults compares two result lists field by field, apart from the
// wall-clock time.
func sameResults(got, want []blockadt.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		g.WallNS, w.WallNS = 0, 0
		if !reflect.DeepEqual(g, w) {
			return fmt.Errorf("scenario %s differs from the reference run", w.Config.Key())
		}
	}
	return nil
}

// matchingRuns runs build(root) at the given parallelism for root seeds
// drawn in turn from seed and tag, and keeps the first count matrices
// whose verdicts all match their expected levels, with their reports.
// Some verdicts depend on the seed in short runs (at 30 blocks, Ethereum
// under a partition sometimes misses EC), and a workload must be one on
// which no request fails.
func matchingRuns(seed, tag uint64, count, parallelism int, build func(root uint64) blockadt.Matrix) ([]blockadt.Matrix, []*blockadt.Report, error) {
	var (
		ms   []blockadt.Matrix
		reps []*blockadt.Report
	)
	for k := uint64(0); k < 64 && len(ms) < count; k++ {
		m := build(mix(seed, tag<<16|k))
		rep, err := blockadt.Run(m, parallelism)
		if err != nil {
			return nil, nil, err
		}
		if rep.Total > 0 && rep.Matched == rep.Total {
			ms, reps = append(ms, m), append(reps, rep)
		}
	}
	if len(ms) < count {
		return nil, nil, fmt.Errorf("found %d of %d root seeds whose verdicts all match", len(ms), count)
	}
	return ms, reps, nil
}

// setupCISweep checks that the CI matrix at root seed 42 reproduces
// SWEEP_baseline.json byte for byte, then picks the workload's root seed
// and keeps its run as the reference every request must reproduce.
func setupCISweep(o options) (session, error) {
	base, err := blockadt.Run(ciMatrix(42), nproc)
	if err != nil {
		return nil, err
	}
	enc, err := base.EncodeJSON()
	if err != nil {
		return nil, err
	}
	golden, err := os.ReadFile(filepath.Join(o.root, "SWEEP_baseline.json"))
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(enc, golden) {
		return nil, fmt.Errorf("the CI matrix at root seed 42 no longer reproduces SWEEP_baseline.json")
	}
	ms, reps, err := matchingRuns(o.seed, 1, 1, nproc, ciMatrix)
	if err != nil {
		return nil, err
	}
	if reps[0].Total != ciScenarios {
		return nil, fmt.Errorf("CI matrix expanded to %d scenarios, want %d", reps[0].Total, ciScenarios)
	}
	return &engineSession{
		matrices:    ms,
		want:        [][]blockadt.Result{reps[0].Results},
		parallelism: nproc,
		replay:      ms[0],
	}, nil
}

// setupLongChain runs every long-chain system once, checks each verdict
// against its Table 1 level, and keeps the results as the reference the
// one-scenario requests must reproduce. It runs one scenario at a time,
// like the timed phase, so the process's peak memory is the timed
// phase's.
func setupLongChain(o options) (session, error) {
	var names []string
	for _, sys := range longChainSystems {
		names = append(names, sys.name)
	}
	ms, reps, err := matchingRuns(o.seed, 2, 1, 1, func(root uint64) blockadt.Matrix {
		return longChainMatrix(root, names...)
	})
	if err != nil {
		return nil, err
	}
	all, ref := ms[0], reps[0]
	if len(ref.Results) != len(names) {
		return nil, fmt.Errorf("long-chain matrix expanded to %d scenarios, want %d", len(ref.Results), len(names))
	}
	s := &engineSession{parallelism: 1, replay: all}
	for i, r := range ref.Results {
		if want := longChainSystems[i]; r.Config.System != want.name || r.Level != want.level {
			return nil, fmt.Errorf("%s classified %s, Table 1 says %s for %s", r.Config.System, r.Level, want.level, want.name)
		}
		s.matrices = append(s.matrices, longChainMatrix(all.RootSeed, names[i]))
		s.want = append(s.want, []blockadt.Result{r})
	}
	return s, nil
}

// reportLog collects the reports of concurrent requests.
type reportLog struct {
	mu      sync.Mutex
	reports []*blockadt.Report
}

func (l *reportLog) add(rep *blockadt.Report) {
	l.mu.Lock()
	l.reports = append(l.reports, rep)
	l.mu.Unlock()
}
