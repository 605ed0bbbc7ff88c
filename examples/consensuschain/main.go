// Command consensuschain demonstrates the strong end of the hierarchy:
// a consortium blockchain (Hyperledger-style ordering, Section 5.7) built
// on the frugal oracle with k = 1, plus the underlying reduction — the same
// oracle solving plain Consensus wait-free (Protocol A, Figure 11 /
// Theorem 4.2). Both parts construct through the public façade by name.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"blockadt/pkg/blockadt"
)

func main() {
	n := flag.Int("n", 8, "number of processes")
	writers := flag.Int("writers", 4, "consortium writers |M|")
	blocks := flag.Int("blocks", 24, "target chain length")
	seed := flag.Uint64("seed", 3, "simulation seed")
	flag.Parse()

	// Part 1 — the ordering-service blockchain: one block per height,
	// strong consistency.
	res, cls, err := blockadt.ClassifySimulated("Hyperledger",
		blockadt.WithN(*n), blockadt.WithWriters(*writers),
		blockadt.WithBlocks(*blocks), blockadt.WithSeed(*seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	spec, err := blockadt.LookupSystem("Hyperledger")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("Hyperledger-style consortium: %d procs, %d writers\n", *n, *writers)
	fmt.Printf("  committed %d blocks in %d ticks, %d forks\n", res.Blocks, res.Ticks, res.Forks)
	fmt.Printf("  classified %s (paper: %s)\n\n", cls.Level, spec.Refinement)
	if cls.Level.String() != "SC" {
		fmt.Fprintln(os.Stderr, "expected SC")
		os.Exit(1)
	}

	// Part 2 — why k=1 is consensus-grade: the same oracle type solves
	// Consensus for arbitrarily many processes (consensus number ∞).
	fmt.Printf("Protocol A (Figure 11): consensus from %s among %d proposers\n", "Θ_F,k=1", *n)
	merits := make([]float64, *n)
	for i := range merits {
		merits[i] = 1
	}
	orc, err := blockadt.NewOracleByName("frugal", blockadt.OracleConfig{K: 1, Merits: merits, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cons, err := blockadt.NewConsensusFromFrugal(orc, "b0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var wg sync.WaitGroup
	decisions := make([]blockadt.ConsensusValue, *n)
	errs := make([]error, *n)
	for i := 0; i < *n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			decisions[i], errs[i] = cons.Propose(i, blockadt.ConsensusValue(fmt.Sprintf("proposal-%d", i)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "p%d: %v\n", i, err)
			os.Exit(1)
		}
	}
	for i, d := range decisions {
		if d != decisions[0] {
			fmt.Fprintf(os.Stderr, "agreement violated at p%d\n", i)
			os.Exit(1)
		}
	}
	fmt.Printf("  all %d processes decided %q — Agreement, Validity, Termination hold\n", *n, decisions[0])
}
