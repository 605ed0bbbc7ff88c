package consensus

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"blockadt/internal/oracle"
)

// runConsensus drives n concurrent proposers through a Consensus instance
// and verifies Termination, Integrity, Agreement and Validity
// (Definition 4.1). valid reports membership in B′; proposals are generated
// per process.
func runConsensus(t *testing.T, c Consensus, n int, propose func(i int) Value, valid func(Value) bool) Value {
	t.Helper()
	var wg sync.WaitGroup
	decisions := make([]Value, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			decisions[i], errs[i] = c.Propose(i, propose(i))
		}(i)
	}
	wg.Wait()
	proposed := map[Value]bool{}
	for i := 0; i < n; i++ {
		proposed[propose(i)] = true
	}
	for i := 0; i < n; i++ {
		// Termination: every correct process decides.
		if errs[i] != nil {
			t.Fatalf("process %d did not decide: %v", i, errs[i])
		}
		// Agreement: all decide the same value.
		if decisions[i] != decisions[0] {
			t.Fatalf("disagreement: p%d=%q vs p0=%q", i, decisions[i], decisions[0])
		}
		// Validity: the decided value is valid (satisfies P); here every
		// proposed value is valid, so decided ∈ proposed.
		if !valid(decisions[i]) || !proposed[decisions[i]] {
			t.Fatalf("invalid decision %q", decisions[i])
		}
	}
	return decisions[0]
}

// TestTheorem42FrugalConsensus is the executable Theorem 4.2: Protocol A
// (Figure 11) solves Consensus from Θ_F,k=1 for any number of processes,
// i.e. the frugal oracle with k = 1 has consensus number ∞.
func TestTheorem42FrugalConsensus(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			merits := make([]float64, n)
			for i := range merits {
				merits[i] = 1
			}
			for _, seed := range claimSeeds(uint64(n)) {
				o := oracle.New(oracle.Config{K: 1, Merits: merits, Seed: seed})
				c, err := NewFromFrugal(o, "b0")
				if err != nil {
					t.Fatalf("seed=%d: %v", seed, err)
				}
				runConsensus(t, c, n,
					func(i int) Value { return Value(fmt.Sprintf("blk-%d", i)) },
					func(Value) bool { return true })
			}
		})
	}
}

// claimSeeds returns the seed a paper-claim test pins plus, outside
// -short, the alternate seeds 1, 9 and 123, so that no claim holds only
// by the luck of one seed.
func claimSeeds(pinned uint64) []uint64 {
	if testing.Short() {
		return []uint64{pinned}
	}
	return slices.Compact(slices.Sorted(slices.Values([]uint64{pinned, 1, 9, 123})))
}

// TestFrugalConsensusWithLossyTapes: Protocol A's getToken loop tolerates
// tapes that grant with low probability — the wait-free loop of Figure 11.
func TestFrugalConsensusWithLossyTapes(t *testing.T) {
	const n = 8
	merits := make([]float64, n)
	for i := range merits {
		merits[i] = 0.05
	}
	o := oracle.New(oracle.Config{K: 1, Merits: merits, Seed: 99})
	c, err := NewFromFrugal(o, "b0")
	if err != nil {
		t.Fatal(err)
	}
	runConsensus(t, c, n,
		func(i int) Value { return Value(fmt.Sprintf("v%d", i)) },
		func(Value) bool { return true })
}

// TestFrugalConsensusCrashTolerance: crashed processes (which simply never
// propose) do not block the others — wait-freedom.
func TestFrugalConsensusCrashTolerance(t *testing.T) {
	const n, alive = 8, 3
	merits := make([]float64, n)
	for i := range merits {
		merits[i] = 1
	}
	o := oracle.New(oracle.Config{K: 1, Merits: merits, Seed: 5})
	c, err := NewFromFrugal(o, "b0")
	if err != nil {
		t.Fatal(err)
	}
	// Only `alive` of n processes participate; they must still decide.
	runConsensus(t, c, alive,
		func(i int) Value { return Value(fmt.Sprintf("v%d", i)) },
		func(Value) bool { return true })
}

func TestFromFrugalRejectsWrongOracle(t *testing.T) {
	if _, err := NewFromFrugal(oracle.NewProdigal(0, 1), "b0"); err == nil {
		t.Fatal("prodigal oracle accepted")
	}
	if _, err := NewFromFrugal(oracle.NewFrugal(2, 0, 1), "b0"); err == nil {
		t.Fatal("k=2 oracle accepted")
	}
}

func TestFromFrugalMaxAttempts(t *testing.T) {
	o := oracle.New(oracle.Config{K: 1, Merits: []float64{0}, Seed: 1})
	c, err := NewFromFrugal(o, "b0")
	if err != nil {
		t.Fatal(err)
	}
	c.MaxAttempts = 10
	if _, err := c.Propose(0, "v"); err != ErrNoDecision {
		t.Fatalf("err = %v, want ErrNoDecision", err)
	}
}

func TestFromCASConsensus(t *testing.T) {
	c := NewFromCAS()
	runConsensus(t, c, 16,
		func(i int) Value { return Value(fmt.Sprintf("c%d", i)) },
		func(Value) bool { return true })
	if _, err := c.Propose(0, ""); err == nil {
		t.Fatal("empty value accepted")
	}
}

func TestFromCTConsensus(t *testing.T) {
	c := NewFromCT("b0")
	runConsensus(t, c, 16,
		func(i int) Value { return Value(fmt.Sprintf("t%d", i)) },
		func(Value) bool { return true })
	if _, err := c.Propose(0, ""); err == nil {
		t.Fatal("empty value accepted")
	}
}

// TestConsensusIntegritySequentialRepeat: proposing again after a decision
// returns the same decision (the object is one-shot; no process decides
// twice differently).
func TestConsensusIntegritySequentialRepeat(t *testing.T) {
	o := oracle.New(oracle.Config{K: 1, Merits: []float64{1, 1}, Seed: 3})
	c, _ := NewFromFrugal(o, "b0")
	d1, err := c.Propose(0, "a")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := c.Propose(1, "b")
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("decisions differ: %q vs %q", d1, d2)
	}
	if d1 != "a" {
		t.Fatalf("decision = %q, want the first proposal a", d1)
	}
}

// TestProperty_AgreementUnderRandomSchedules: for random proposer counts
// and seeds, all implementations agree internally and decide a proposed
// value.
func TestProperty_AgreementUnderRandomSchedules(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%8) + 2
		merits := make([]float64, n)
		for i := range merits {
			merits[i] = 1
		}
		o := oracle.New(oracle.Config{K: 1, Merits: merits, Seed: seed})
		c, err := NewFromFrugal(o, "root")
		if err != nil {
			return false
		}
		var wg sync.WaitGroup
		decisions := make([]Value, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				decisions[i], _ = c.Propose(i, Value(fmt.Sprintf("p%d", i)))
			}(i)
		}
		wg.Wait()
		for i := 1; i < n; i++ {
			if decisions[i] != decisions[0] {
				return false
			}
		}
		return decisions[0] != ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
