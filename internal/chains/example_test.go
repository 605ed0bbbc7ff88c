package chains_test

import (
	"fmt"

	"blockadt/internal/chains"
)

// Example regenerates one row of Table 1: simulate Bitcoin and classify
// its recorded history.
func Example() {
	p := chains.Params{N: 8, TargetBlocks: 30, Seed: 42}
	res := chains.Bitcoin.Run(p)
	cls := res.Classify(chains.Options(p, res.History))
	fmt.Println("paper:", chains.Bitcoin.Refinement)
	fmt.Println("measured:", cls.Level)
	fmt.Println("forked:", res.Forks > 0)
	// Output:
	// paper: R(BT-ADT_EC, Θ_P)
	// measured: EC
	// forked: true
}

// ExampleResult_Classify regenerates the whole of Table 1: run each
// system and classify its history.
func ExampleResult_Classify() {
	p := chains.Params{N: 8, TargetBlocks: 30, Seed: 42}
	systems := chains.All()
	allMatch := true
	for _, sys := range systems {
		res := sys.Run(p)
		if res.Classify(chains.Options(p, res.History)).Level != sys.Expected {
			allMatch = false
		}
	}
	fmt.Printf("%d systems, all at the paper's level: %v\n", len(systems), allMatch)
	// Output:
	// 7 systems, all at the paper's level: true
}
