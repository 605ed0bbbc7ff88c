// Package blockadt_bench holds the top-level benchmark harness: one
// benchmark per paper artifact (Table 1 and Figures 1-14 / Theorems),
// plus ablation benches for the design decisions behind the oracle,
// checker and simulator. Each benchmark regenerates its artifact end to
// end, so `go test -bench=. -benchmem` reproduces the entire evaluation.
package blockadt_bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"blockadt/internal/adt"
	"blockadt/internal/blocktree"
	"blockadt/internal/chains"
	"blockadt/internal/consensus"
	"blockadt/internal/consistency"
	"blockadt/internal/core"
	"blockadt/internal/fairness"
	"blockadt/internal/figures"
	"blockadt/internal/finality"
	"blockadt/internal/history"
	"blockadt/internal/ledger"
	"blockadt/internal/netsim"
	"blockadt/internal/oracle"
	"blockadt/internal/pbft"
	"blockadt/internal/prng"
	"blockadt/internal/registers"
	"blockadt/internal/runstore"
	"blockadt/pkg/blockadt"
)

// BenchmarkSweepMatrix measures the scenario-sweep engine on a 28-config
// matrix (7 systems × 4 seeds) at parallelism 1, 4 and NumCPU. The runs
// are embarrassingly parallel and independent, so on a c-core machine the
// wall-clock time at parallelism min(4, c) drops by ~min(4, c)× versus
// parallelism 1 while the results stay byte-identical (the determinism
// regression test in pkg/blockadt pins that).
func BenchmarkSweepMatrix(b *testing.B) {
	matrix := blockadt.Matrix{Seeds: 4, TargetBlocks: 30}
	if configs, err := matrix.Configs(); err != nil || len(configs) < 28 {
		b.Fatalf("matrix expanded to %d configs (err=%v), want >= 28", len(configs), err)
	}
	for _, par := range []int{1, 4, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := blockadt.Run(matrix, par)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Matched != rep.Total {
					b.Fatalf("%d/%d configurations mismatched", rep.Total-rep.Matched, rep.Total)
				}
			}
		})
	}
}

// BenchmarkSweepMatrixMetrics measures the same matrix with the full
// metric-collection pipeline enabled (every registered collector on every
// run). Comparing parallel=1 here against BenchmarkSweepMatrix/parallel=1
// isolates the metrics overhead.
func BenchmarkSweepMatrixMetrics(b *testing.B) {
	matrix := blockadt.Matrix{Seeds: 4, TargetBlocks: 30, Metrics: blockadt.MetricNames()}
	for _, par := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := blockadt.Run(matrix, par)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Matched != rep.Total {
					b.Fatalf("%d/%d configurations mismatched", rep.Total-rep.Matched, rep.Total)
				}
				if len(rep.Results[0].Metrics) == 0 {
					b.Fatal("metrics not collected")
				}
			}
		})
	}
}

// BenchmarkLongChain measures the long-chain shape: one 600-block
// scenario per op (twenty times the sweep matrix's chain length) with
// every metric, rotating over two proof-of-work selectors and two
// committee systems. The checkers, the history and the collectors take a
// large share here, so its B/op tracks the history recorder's footprint.
func BenchmarkLongChain(b *testing.B) {
	var matrices []blockadt.Matrix
	for _, sys := range []string{"Bitcoin", "Ethereum", "Algorand", "Hyperledger"} {
		matrices = append(matrices, blockadt.Matrix{
			Systems: []string{sys}, TargetBlocks: 600, RootSeed: 42, Metrics: blockadt.MetricNames(),
		})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := matrices[i%len(matrices)]
		rep, err := blockadt.Run(m, 1)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Total != 1 || rep.Matched != rep.Total {
			b.Fatalf("%s: %d/%d scenarios matched", m.Systems[0], rep.Matched, rep.Total)
		}
	}
}

// BenchmarkSelectTip measures one tip selection per op for each selector
// on a 600-block chain with a one-block fork off every fourth block: 150
// dead leaves, the shape a long proof-of-work run leaves behind. Miners
// select once per granted token and replicas once per read, so this is
// the blocktree select layer of every simulation.
func BenchmarkSelectTip(b *testing.B) {
	tr := blocktree.NewCap(750)
	parent := blocktree.GenesisID
	for h := 1; h <= 600; h++ {
		id := blocktree.BlockID(fmt.Sprintf("b%04d", h))
		if err := tr.Insert(blocktree.Block{ID: id, Parent: parent, Work: 1}); err != nil {
			b.Fatal(err)
		}
		if h%4 == 0 {
			fork := blocktree.Block{ID: blocktree.BlockID(fmt.Sprintf("a%04d", h)), Parent: parent, Work: 1}
			if err := tr.Insert(fork); err != nil {
				b.Fatal(err)
			}
		}
		parent = id
	}
	if n := len(tr.Leaves()); n != 151 {
		b.Fatalf("tree has %d leaves, want 151", n)
	}
	for _, sel := range []blocktree.Selector{blocktree.LongestChain{}, blocktree.HeaviestChain{}, blocktree.GHOST{}, blocktree.SingleChain{}} {
		b.Run(sel.Name(), func(b *testing.B) {
			// Warm the caches first: at the gate's 100 iterations the timed
			// loop is a few microseconds, so a cold first pass would dominate.
			for i := 0; i < 10000; i++ {
				blocktree.SelectTip(sel, tr)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if blocktree.SelectTip(sel, tr).ID != parent {
					b.Fatalf("%s selected off the main chain", sel.Name())
				}
			}
		})
	}
}

// BenchmarkRunStore measures sweeps through one shared run-store handle,
// as btadt serve holds it, over a store pre-filled with 2,000 entries.
// warm serves the CI matrix from the store: 36 cache hits per op. cold
// sweeps a one-scenario matrix at a root seed no op used before: one
// simulation, one put and one sweep finish per op, so any store cost
// that grows with the number of entries shows here.
func BenchmarkRunStore(b *testing.B) {
	dir := b.TempDir()
	ci := blockadt.Matrix{
		Links:        []string{"sync", "async", "psync", "lossy", "partition", "jitter"},
		Adversaries:  []string{"none", "selfish"},
		Ns:           []int{8},
		Seeds:        2,
		TargetBlocks: 30,
		RootSeed:     42,
		Metrics:      blockadt.MetricNames(),
	}
	first, err := blockadt.OpenStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := blockadt.Run(ci, runtime.NumCPU(), blockadt.WithRunStore(first))
	if err != nil {
		b.Fatal(err)
	}
	if rep.Total != 36 {
		b.Fatalf("CI matrix expanded to %d scenarios, want 36", rep.Total)
	}
	filler, err := runstore.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := rep.Total; i < 2000; i++ {
		data, err := json.Marshal(rep.Results[i%rep.Total])
		if err != nil {
			b.Fatal(err)
		}
		if err := filler.Put(fmt.Sprintf("filler|%d", i), data); err != nil {
			b.Fatal(err)
		}
	}
	store, err := blockadt.OpenStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	if store.Len() != 2000 {
		b.Fatalf("store holds %d entries, want 2000", store.Len())
	}

	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var census blockadt.Census
			if _, err := blockadt.Run(ci, 1, blockadt.WithRunStore(store), blockadt.WithCensus(&census)); err != nil {
				b.Fatal(err)
			}
			if census.CacheHits() != 36 {
				b.Fatalf("%d of 36 scenarios served from the store", census.CacheHits())
			}
		}
	})
	root := uint64(1000)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			root++
			m := blockadt.Matrix{Systems: []string{"Bitcoin"}, TargetBlocks: 30, RootSeed: root}
			var census blockadt.Census
			if _, err := blockadt.Run(m, 1, blockadt.WithRunStore(store), blockadt.WithCensus(&census)); err != nil {
				b.Fatal(err)
			}
			if census.Simulated() != 1 {
				b.Fatalf("%d of 1 scenarios simulated", census.Simulated())
			}
		}
	})
}

// BenchmarkMetricCollectors measures the collector pass alone: every
// registered metric over one completed mid-size run, the marginal cost a
// metrics-enabled scenario pays after its simulation finishes.
func BenchmarkMetricCollectors(b *testing.B) {
	res, err := blockadt.Simulate("Bitcoin", blockadt.WithBlocks(30), blockadt.WithSeed(42))
	if err != nil {
		b.Fatal(err)
	}
	run := blockadt.MetricRun{
		N: 8, TargetBlocks: 30, Blocks: res.Blocks, Forks: res.Forks,
		Ticks: res.Ticks, Delivered: res.Delivered, Dropped: res.Dropped,
		Bytes: res.Bytes, History: res.History,
	}
	specs := blockadt.Metrics()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, spec := range specs {
			if _, ok := spec.Compute(run); ok {
				n++
			}
		}
		if n == 0 {
			b.Fatal("no collector applied")
		}
	}
}

// BenchmarkSeedAggregation measures the streaming fold: 1000 synthetic
// results through a SeedAggregator (past the exact-quantile limit, so
// the P² switch is included).
func BenchmarkSeedAggregation(b *testing.B) {
	results := make([]blockadt.Result, 1000)
	for i := range results {
		results[i] = blockadt.Result{
			Config: blockadt.Scenario{System: "Bitcoin", Link: "sync", Adversary: "none", N: 8, Blocks: 30, SeedIndex: i},
			Match:  true,
			Metrics: map[string]float64{
				"fork_rate": float64(i%7) / 10, "msg_bytes": float64(10000 + i),
			},
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aggs := blockadt.AggregateSeeds(results)
		if len(aggs) != 1 || aggs[0].Seeds != 1000 {
			b.Fatal("bad aggregation")
		}
	}
}

// BenchmarkTable1Classify regenerates Table 1: simulate all seven systems
// and classify their histories, one after another as `btadt classify`
// does.
func BenchmarkTable1Classify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range blockadt.SystemNames() {
			classifyTable1Row(b, name)
		}
	}
}

// BenchmarkTable1PerSystem times each row of Table 1 separately.
func BenchmarkTable1PerSystem(b *testing.B) {
	for _, name := range blockadt.SystemNames() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				classifyTable1Row(b, name)
			}
		})
	}
}

// classifyTable1Row simulates and classifies one Table 1 row at the
// golden's parameters, failing on a verdict the paper does not assign.
func classifyTable1Row(b *testing.B, name string) {
	spec, err := blockadt.LookupSystem(name)
	if err != nil {
		b.Fatal(err)
	}
	_, cls, err := blockadt.ClassifySimulated(name, blockadt.WithN(8), blockadt.WithBlocks(30), blockadt.WithSeed(42))
	if err != nil {
		b.Fatal(err)
	}
	if !cls.Level.AtLeast(spec.Expected) {
		b.Fatalf("%s classified %s, paper says %s", name, cls.Level, spec.Expected)
	}
}

// BenchmarkFig1SequentialSpec replays and recognizes the Figure 1
// transition path.
func BenchmarkFig1SequentialSpec(b *testing.B) {
	bt := blocktree.ADT(blocktree.LongestChain{}, blocktree.AcceptAll)
	seq := []adt.Operation[blocktree.Input, blocktree.Output]{
		adt.Out[blocktree.Input, blocktree.Output](blocktree.AppendOp(blocktree.Block{ID: "b1"}), blocktree.Output{OK: true}),
		adt.Out[blocktree.Input, blocktree.Output](blocktree.ReadOp(), blocktree.Output{IsChain: true, Chain: history.Chain{"b0", "b1"}}),
		adt.Out[blocktree.Input, blocktree.Output](blocktree.AppendOp(blocktree.Block{ID: "b2"}), blocktree.Output{OK: true}),
		adt.Out[blocktree.Input, blocktree.Output](blocktree.ReadOp(), blocktree.Output{IsChain: true, Chain: history.Chain{"b0", "b1", "b2"}}),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bt.Recognizes(seq, blocktree.Output.Equal); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2StrongConsistency builds and checks the Figure 2 history.
func BenchmarkFig2StrongConsistency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := figures.Fig2(12)
		if !consistency.CheckSC(h, consistency.Options{GraceWindow: 8}).Satisfied() {
			b.Fatal("Fig2 not SC")
		}
	}
}

// BenchmarkFig3EventualConsistency builds and checks the Figure 3 history.
func BenchmarkFig3EventualConsistency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := figures.Fig3(12)
		cls := consistency.Classify(h, consistency.Options{GraceWindow: 8})
		if cls.Level != consistency.LevelEC {
			b.Fatal("Fig3 not EC")
		}
	}
}

// BenchmarkFig4Rejection builds and checks the Figure 4 history.
func BenchmarkFig4Rejection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := figures.Fig4(12)
		if consistency.Classify(h, consistency.Options{GraceWindow: 8}).Level != consistency.LevelNone {
			b.Fatal("Fig4 classified")
		}
	}
}

// BenchmarkFig6OracleTransitions measures the oracle's two operations (the
// Figure 6 path).
func BenchmarkFig6OracleTransitions(b *testing.B) {
	o := oracle.NewProdigal(1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj := oracle.ObjectID(fmt.Sprintf("o%d", i))
		tok, ok := o.GetToken(0, obj, obj+"-c")
		if !ok {
			b.Fatal("refused")
		}
		if _, ins, err := o.ConsumeToken(tok); err != nil || !ins {
			b.Fatal("consume failed")
		}
	}
}

// BenchmarkFig7AppendRefinement measures the composed append+read path.
func BenchmarkFig7AppendRefinement(b *testing.B) {
	bc := core.New(core.Config{Oracle: oracle.NewFrugal(1, 1, 1)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := blocktree.BlockID(fmt.Sprintf("n%d", i))
		if ok, err := bc.Append(0, blocktree.Block{ID: id}); err != nil || !ok {
			b.Fatal("append failed")
		}
	}
}

// BenchmarkFig8Hierarchy samples the refinement hierarchy across oracle
// classes.
func BenchmarkFig8Hierarchy(b *testing.B) {
	for _, k := range []int{1, 2, 4, oracle.Unbounded} {
		name := fmt.Sprintf("k=%d", k)
		if k == oracle.Unbounded {
			name = "prodigal"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := core.ForkWorkload{K: k, Procs: 8, Rounds: 6, Seed: 17}.Run()
				if k > 0 && res.MaxFanout > k {
					b.Fatal("bound violated")
				}
			}
		})
	}
}

// BenchmarkFig9CASFromCT measures the Figure 9/10 reduction.
func BenchmarkFig9CASFromCT(b *testing.B) {
	cas := registers.NewCASFromCT(registers.NewConsumeTokenK1())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := fmt.Sprintf("h%d", i)
		if cas.CompareAndSwapEmpty(h, "blk") != "" {
			b.Fatal("lost on fresh object")
		}
	}
}

// BenchmarkThm42ConsensusFromFrugal measures Protocol A (Figure 11) for
// growing process counts.
func BenchmarkThm42ConsensusFromFrugal(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			merits := make([]float64, n)
			for i := range merits {
				merits[i] = 1
			}
			for i := 0; i < b.N; i++ {
				o := oracle.New(oracle.Config{K: 1, Merits: merits, Seed: uint64(i)})
				c, err := consensus.NewFromFrugal(o, "b0")
				if err != nil {
					b.Fatal(err)
				}
				for p := 0; p < n; p++ {
					if _, err := c.Propose(p, consensus.Value(fmt.Sprintf("v%d", p))); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkThm43ProdigalFromSnapshot measures the Figure 12 reduction.
func BenchmarkThm43ProdigalFromSnapshot(b *testing.B) {
	const tokens = 16
	for i := 0; i < b.N; i++ {
		ct := registers.NewCTFromSnapshot(tokens)
		for t := 0; t < tokens; t++ {
			ct.Consume("h", fmt.Sprintf("t%d", t))
		}
	}
}

// BenchmarkThm32KForkCoherence measures the contended oracle workload.
func BenchmarkThm32KForkCoherence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := core.ForkWorkload{K: 2, Procs: 8, Rounds: 6, Seed: uint64(i)}.Run()
		if res.MaxFanout > 2 {
			b.Fatal("bound violated")
		}
	}
}

// --- checker micro-benchmarks (the consistency checker is the hot path of
// every experiment) ---

// syntheticHistory records reads of one growing chain by four processes.
// Every read gets its own Clone()d chain, so no two chains share memory:
// the checker benches measure the path that histories not recorded
// through ReadIDs take. The reads agree on one parent per block id, so
// the prefix checkers take the one-position test and the binary search.
// The history's analysis index (the Reads view, the block ids and the
// parent agreement) is built in the first iteration only and cached.
func syntheticHistory(reads, chainLen int) *history.History {
	rec := history.NewRecorder()
	chain := make(history.Chain, 1, chainLen+1)
	chain[0] = "b0"
	for i := 0; i < chainLen; i++ {
		id := history.BlockRef(fmt.Sprintf("c%d", i))
		op := rec.Invoke(0, history.Label{Kind: history.KindAppend, Block: id})
		rec.Respond(op, history.Label{Kind: history.KindAppend, Block: id, Parent: chain[len(chain)-1], OK: true})
		chain = append(chain, id)
	}
	for i := 0; i < reads; i++ {
		p := history.ProcID(i % 4)
		n := 1 + (i*chainLen)/reads
		op := rec.Invoke(p, history.Label{Kind: history.KindRead})
		rec.Respond(op, history.Label{Kind: history.KindRead, Chain: chain[:n+1].Clone()})
	}
	return rec.Snapshot()
}

// BenchmarkCheckerStrongPrefix measures Strong Prefix on a 1000-read
// history (O(N log N) via the length-sorted adjacency check, one
// position compared per adjacent pair).
func BenchmarkCheckerStrongPrefix(b *testing.B) {
	h := syntheticHistory(1000, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !consistency.StrongPrefix(h, consistency.Options{}).Satisfied {
			b.Fatal("violated")
		}
	}
}

// BenchmarkCheckerEventualPrefix measures Eventual Prefix on the same
// history (O(N log L) via the suffix common-prefix computation, each
// common prefix found by binary search).
func BenchmarkCheckerEventualPrefix(b *testing.B) {
	h := syntheticHistory(1000, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !consistency.EventualPrefix(h, consistency.Options{}).Satisfied {
			b.Fatal("violated")
		}
	}
}

// BenchmarkCheckerFullSC measures the complete SC report.
func BenchmarkCheckerFullSC(b *testing.B) {
	h := syntheticHistory(1000, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !consistency.CheckSC(h, consistency.Options{}).Satisfied() {
			b.Fatal("violated")
		}
	}
}

// --- ablation benches (the design decisions behind the hot paths) ---

// BenchmarkAblationTapeVsCrypto compares the merit-tape PRF lookup against
// recomputing a hash-chain per attempt (what a naive PoW abstraction would
// do): the tape design keeps getToken O(1) with zero allocations.
func BenchmarkAblationTapeVsCrypto(b *testing.B) {
	b.Run("tape-prf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = prng.Bernoulli(prng.Cell(42, 3, uint64(i)), 0.01)
		}
	})
	b.Run("hash-chain", func(b *testing.B) {
		// Simulated hash chain: iterate the mixer 16 times per attempt,
		// the cost profile of digesting a block header.
		state := uint64(42)
		for i := 0; i < b.N; i++ {
			v := state
			for r := 0; r < 16; r++ {
				v = prng.Mix(v, uint64(r))
			}
			state = v
		}
	})
}

// BenchmarkAblationHorizon sweeps the finitization grace window: smaller
// windows check more pairs (stricter, slower), larger windows forgive more.
func BenchmarkAblationHorizon(b *testing.B) {
	h := syntheticHistory(1000, 200)
	for _, w := range []int{10, 50, 250, 500} {
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) {
			opts := consistency.Options{GraceWindow: w}
			for i := 0; i < b.N; i++ {
				consistency.EventualPrefix(h, opts)
				consistency.EverGrowingTree(h, opts)
			}
		})
	}
}

// BenchmarkAblationSelectors compares the selection functions' cost on a
// forked tree — the per-read cost each system pays.
func BenchmarkAblationSelectors(b *testing.B) {
	res := core.ForkWorkload{K: oracle.Unbounded, Procs: 8, Rounds: 10, Seed: 5}.Run()
	tree := res.Tree
	for _, sel := range []blocktree.Selector{blocktree.LongestChain{}, blocktree.HeaviestChain{}, blocktree.GHOST{}, blocktree.SingleChain{}} {
		b.Run(sel.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if c := sel.Select(tree); len(c) == 0 {
					b.Fatal("empty selection")
				}
			}
		})
	}
}

// --- extension benches (PBFT, gossip, finality, selfish mining, ledger,
// linearizability) ---

// BenchmarkPBFTDecision measures one full three-phase PBFT slot at n=4.
func BenchmarkPBFTDecision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := netsim.New(netsim.Synchronous{Delta: 3}, uint64(i))
		reps := make([]*pbft.Replica, 4)
		for j := 0; j < 4; j++ {
			r := pbft.NewReplica(history.ProcID(j), pbft.Config{N: 4, ViewTimeout: 64})
			reps[j] = r
			s.Register(r.ID(), r)
		}
		for j, r := range reps {
			r.Propose(s, 0, fmt.Sprintf("v%d", j))
		}
		s.Run(500)
		if _, ok := reps[0].Decided(0); !ok {
			b.Fatal("no decision")
		}
	}
}

// BenchmarkPBFTChain measures a 15-block PBFT-committed chain run.
func BenchmarkPBFTChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := chains.PBFTChain{}.Run(chains.Params{N: 4, TargetBlocks: 15, Seed: 9})
		if res.Blocks < 15 {
			b.Fatal("short chain")
		}
	}
}

// BenchmarkBroadcast measures the netsim broadcast hot path: one message
// fanned out to 64 registered processes. Every simulator calls this once
// per block per miner, so it is the inner loop of the entire sweep
// engine; the fan-out walks the Sim's handler table in process-id order
// and queues each copy in its tick's ring bucket. It measures the steady
// state: an untimed warm-up batch grows the event slab to what a batch of
// broadcasts fills, and each batch's deliveries are drained untimed, so
// no op pays for slab growth or for delivery. Gated by benchguard via
// BENCH_baseline.txt.
func BenchmarkBroadcast(b *testing.B) {
	s := netsim.New(netsim.Synchronous{Delta: 4}, 1)
	const procs, batch = 64, 64
	for i := 0; i < procs; i++ {
		s.Register(history.ProcID(i), netsim.HandlerFuncs{})
	}
	m := netsim.Message{Kind: netsim.UpdateMsg, Block: "b"}
	// RunToIdle drains by queue emptiness: Run(horizon) would jump virtual
	// time to the horizon and leave the next batch's deliveries past it.
	for i := 0; i < batch; i++ {
		s.Broadcast(0, m)
	}
	s.RunToIdle(1 << 62)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Broadcast(0, m)
		if i%batch == batch-1 {
			b.StopTimer()
			s.RunToIdle(1 << 62)
			b.StartTimer()
		}
	}
}

// BenchmarkEventLoop measures the netsim event loop per event over a
// proof-of-work-shaped mix: 8 processes, each re-arming a mining timer
// every 4 ticks and a second timer every 16, a broadcast about every 12
// ticks network-wide (one mining timer in 24 fires one), and δ = 8. About
// 80% of the events are timers, as in the simulated chains. One op is
// 1024 ticks; ns/event is the loop's cost per dispatched event. Gated by
// benchguard via BENCH_baseline.txt.
func BenchmarkEventLoop(b *testing.B) {
	const procs, span = 8, 1024
	s := netsim.New(netsim.Synchronous{Delta: 8}, 1)
	for i := 0; i < procs; i++ {
		p := history.ProcID(i)
		s.Register(p, netsim.HandlerFuncs{Timer: func(s *netsim.Sim, tag string) {
			if tag == "tick" {
				s.TimerAt(p, s.Now()+16, "tick")
				return
			}
			if s.Rng().Int63n(24) == 0 {
				s.Broadcast(p, netsim.Message{Kind: netsim.UpdateMsg, Block: "b"})
			}
			s.TimerAt(p, s.Now()+4, "mine")
		}})
		s.TimerAt(p, 1, "mine")
		s.TimerAt(p, 1, "tick")
	}
	s.Run(span) // grow the slab to the mix's peak queue depth
	b.ReportAllocs()
	b.ResetTimer()
	events := 0
	for i := 0; i < b.N; i++ {
		events += s.Run(s.Now() + span)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkGossipDissemination measures flooding one block to 8 processes.
func BenchmarkGossipDissemination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := netsim.New(netsim.Synchronous{Delta: 4}, uint64(i))
		gs := make([]*netsim.Gossiper, 8)
		total := 0
		for j := 0; j < 8; j++ {
			g := netsim.NewGossiper(history.ProcID(j), func(*netsim.Sim, netsim.Message) { total++ })
			gs[j] = g
			s.Register(history.ProcID(j), netsim.HandlerFuncs{
				Message: func(sim *netsim.Sim, m netsim.Message) { g.OnMessage(sim, m) },
			})
		}
		gs[0].Publish(s, netsim.Message{Kind: netsim.GossipKind, Block: "b", Origin: 0})
		s.Run(1000)
		if total != 8 {
			b.Fatal("incomplete dissemination")
		}
	}
}

// BenchmarkFinalityGadget measures per-observation cost on a growing chain.
func BenchmarkFinalityGadget(b *testing.B) {
	tree := blocktree.New()
	parent := blocktree.GenesisID
	for i := 0; i < 500; i++ {
		id := blocktree.BlockID(fmt.Sprintf("c%04d", i))
		if err := tree.Insert(blocktree.Block{ID: id, Parent: parent}); err != nil {
			b.Fatal(err)
		}
		parent = id
	}
	g := finality.New(6, blocktree.LongestChain{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Observe(tree); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelfishMining measures the full adversarial run of experiment X7.
func BenchmarkSelfishMining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := chains.Execute(chains.Scenario{
			Adversary: chains.SelfishWithholding(0.34),
			Params:    chains.Params{N: 6, TargetBlocks: 60, Seed: 31},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Adversary.AdversaryMined == 0 {
			b.Fatal("degenerate run")
		}
	}
}

// BenchmarkLedgerReplay measures replaying a 100-block transaction chain.
func BenchmarkLedgerReplay(b *testing.B) {
	w := ledger.NewWorkload(3, 8, 10000)
	tree := blocktree.New()
	parent := blocktree.GenesisID
	for i := 0; i < 100; i++ {
		enc, err := w.NextBatch(5).Encode()
		if err != nil {
			b.Fatal(err)
		}
		id := blocktree.BlockID(fmt.Sprintf("L%03d", i))
		if err := tree.Insert(blocktree.Block{ID: id, Parent: parent, Payload: enc}); err != nil {
			b.Fatal(err)
		}
		parent = id
	}
	chain, _ := tree.ChainTo(parent)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ledger.Replay(w.Genesis(), chain); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinearizabilitySearch measures the Wing–Gong search on a
// maximal-size accepted history.
func BenchmarkLinearizabilitySearch(b *testing.B) {
	bc := core.New(core.Config{Oracle: oracle.NewFrugal(1, 3, 1, 1)})
	for i := 0; i < 8; i++ {
		bc.Append(history.ProcID(i%2), blocktree.Block{ID: blocktree.BlockID(fmt.Sprintf("ln%d", i))})
		bc.Read(history.ProcID(i % 2))
	}
	h := bc.History()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := consistency.Linearizable(h, bc.Selector())
		if err != nil || !ok {
			b.Fatal("not linearizable")
		}
	}
}

// BenchmarkFairnessAnalyze measures the chain-quality analysis of a
// 150-block run history.
func BenchmarkFairnessAnalyze(b *testing.B) {
	res := chains.Bitcoin{}.Run(chains.Params{N: 5, TargetBlocks: 150, Seed: 13})
	merits := []float64{1, 1, 1, 1, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := fairness.Analyze(res.History, merits)
		if rep.Total == 0 {
			b.Fatal("empty analysis")
		}
	}
}
