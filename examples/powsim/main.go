// Command powsim simulates a Bitcoin-style proof-of-work network — the
// paper's R(BT-ADT_EC, Θ_P) refinement — and shows why such systems only
// achieve Eventual (not Strong) consistency: concurrent miners fork the
// BlockTree, divergent reads coexist for a while, and the heaviest-chain
// rule eventually reconciles every replica onto a common prefix.
//
// Flags select the network size, the mining rate and the block target; the
// run ends with the consistency checker's verdict on the recorded history.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"blockadt/pkg/blockadt"
)

func main() {
	n := flag.Int("n", 8, "number of miners")
	blocks := flag.Int("blocks", 40, "target chain length")
	seed := flag.Uint64("seed", 7, "simulation seed")
	ghost := flag.Bool("ghost", false, "use Ethereum's GHOST selection instead of heaviest-chain")
	flag.Parse()

	sysName := "Bitcoin"
	if *ghost {
		sysName = "Ethereum"
	}
	spec, err := blockadt.LookupSystem(sysName)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulating %s: %d miners, target %d blocks, seed %d\n", spec.Name, *n, *blocks, *seed)

	res, cls, err := blockadt.ClassifySimulated(sysName,
		blockadt.WithN(*n), blockadt.WithBlocks(*blocks), blockadt.WithSeed(*seed))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nvirtual time        %d ticks\n", res.Ticks)
	fmt.Printf("committed blocks    %d\n", res.Blocks)
	fmt.Printf("fork points         %d\n", res.Forks)
	fmt.Printf("messages delivered  %d\n", res.Delivered)
	fmt.Printf("oracle              %s, selector %s\n", res.OracleName, res.SelectorName)

	fmt.Printf("\nconsistency level   %s   (paper: %s)\n", cls.Level, spec.Refinement)
	fmt.Printf("\n%s\n%s", cls.SC, cls.EC)

	if !cls.Level.AtLeast(spec.Expected) {
		fmt.Fprintf(os.Stderr, "unexpected classification: got %s want %s\n", cls.Level, spec.Expected)
		os.Exit(1)
	}
	if res.Forks == 0 {
		fmt.Println("\nnote: no forks occurred this run — try a larger -n or different -seed to see divergence")
	} else {
		fmt.Printf("\nthe %d fork points above are why Strong Prefix fails while Eventual Prefix holds:\n", res.Forks)
		fmt.Println("concurrent reads disagreed on a suffix, then converged (Definition 3.3).")
	}
}
