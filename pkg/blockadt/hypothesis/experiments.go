package hypothesis

import (
	"fmt"

	"blockadt/pkg/blockadt"
)

// The three first-party experiments. Each is an executable statement of
// one of the paper's claims over the scenario engine; their checked-in
// outcomes under hypotheses/ are the CI goldens. All three share the
// sweep root seed 42 and the default n=8, 30-block scenario shape, so
// their scenarios are cache hits against the CI sweep store wherever
// the dimensions overlap.

// phaseGrid is the (drop rate, GST) grid of the Theorem 4.7 phase
// boundary experiment: the p=0 row is reliable weak synchrony at two
// stabilization times (Eventual Prefix must hold), the p>0 rows drop
// correct-process messages (Theorem 4.7: Eventual Prefix must fall).
var phaseGrid = []struct {
	Rate      float64
	GSTDeltas int
}{
	{0, 8}, {0, 16},
	{0.05, 8}, {0.05, 16},
	{0.10, 8}, {0.10, 16},
}

func init() {
	allMetrics := blockadt.MetricNames()
	powMatrix := func(link string) blockadt.Matrix {
		return blockadt.Matrix{
			Systems:      []string{"Bitcoin", "Ethereum"},
			Links:        []string{link},
			Ns:           []int{8},
			TargetBlocks: 30,
			// Collecting the full metric set keeps these scenarios
			// byte-identical with the CI sweep's store keys (`-metrics
			// all`), so the cached shards serve them without simulating.
			Metrics: allMetrics,
		}
	}

	Register(Experiment{
		Name: "fork-rate-vs-delta",
		Claim: "Quadrupling the network delay bound (asynchronous links with maxDelay = 32 " +
			"vs the synchronous δ = 8) raises the PoW fork rate: a block update in flight " +
			"four times longer widens the window in which two miners extend different " +
			"tips, so forks per committed block increase across the paired seeds.",
		Class:     Dominance,
		Metric:    blockadt.MetricForkRate,
		Direction: +1,
		Seeds:     8,
		RootSeed:  42,
		Arms: []Arm{
			{Label: "sync", Matrix: powMatrix(blockadt.LinkSync)},
			{Label: "slow", Matrix: powMatrix(blockadt.EnsureAsyncLink(32))},
		},
	})

	alphas := []float64{0.15, 0.25, 0.34, 0.45}
	selfishArms := make([]Arm, 0, len(alphas))
	for _, alpha := range alphas {
		selfishArms = append(selfishArms, Arm{
			Label: fmt.Sprintf("α=%.2f", alpha),
			Value: alpha,
			Matrix: blockadt.Matrix{
				Systems:      []string{"Bitcoin"},
				Adversaries:  []string{blockadt.AdvSelfish},
				Alpha:        alpha,
				Ns:           []int{8},
				TargetBlocks: 30,
				Metrics:      allMetrics,
			},
		})
	}
	Register(Experiment{
		Name: "selfish-revenue-vs-alpha",
		Claim: "A selfish miner's realized main-chain share grows monotonically with its " +
			"merit share α: each step of the α grid raises the adversary_share mean, and " +
			"the endpoints (α = 0.15 vs α = 0.45) separate on every paired seed.",
		Class:     Monotonicity,
		Metric:    blockadt.MetricAdversaryShare,
		Direction: +1,
		Seeds:     8,
		RootSeed:  42,
		Arms:      selfishArms,
	})

	phaseArms := make([]Arm, 0, len(phaseGrid))
	for _, cell := range phaseGrid {
		link := blockadt.EnsureLossyPsyncLink(cell.Rate, cell.GSTDeltas)
		// Reliable channels (p = 0) converge after stabilization; any
		// drop of a correct process's message breaks LRC, and with it
		// every criterion of the hierarchy (Theorem 4.7).
		level := blockadt.LevelNone
		if cell.Rate == 0 {
			level = blockadt.LevelEC
		}
		phaseArms = append(phaseArms, Arm{
			Label: fmt.Sprintf("p=%.2f gst=%dδ", cell.Rate, cell.GSTDeltas),
			Matrix: blockadt.Matrix{
				Systems:      []string{"Bitcoin", "Ethereum"},
				Links:        []string{link},
				Ns:           []int{8},
				TargetBlocks: 30,
			},
			Level: level,
		})
	}
	Register(Experiment{
		Name: "theorem-4.7-phase-boundary",
		Claim: "The Theorem 4.7 boundary is sharp and deterministic over weakly-synchronous " +
			"lossy links: with reliable channels (p = 0) every run converges to its " +
			"eventual-consistency prediction at both stabilization times, while any " +
			"positive drop rate destroys even Eventual Prefix on every run — the outcome " +
			"is decided by the configuration, not by chance.",
		Class:    Deterministic,
		Seeds:    4,
		RootSeed: 42,
		Arms:     phaseArms,
	})
}
