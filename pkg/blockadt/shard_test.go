package blockadt

import (
	"testing"
)

func shardTestMatrix() Matrix {
	return Matrix{
		Systems:      []string{"Bitcoin", "Ethereum", "Hyperledger", "Algorand"},
		Links:        []string{LinkSync, LinkAsync, LinkPsync},
		Adversaries:  []string{AdvNone, AdvSelfish},
		Ns:           []int{4, 8},
		Seeds:        3,
		RootSeed:     42,
		TargetBlocks: 8,
	}
}

func keySet(t *testing.T, m Matrix) map[string]bool {
	t.Helper()
	configs, err := m.Configs()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool, len(configs))
	for _, c := range configs {
		if out[c.Key()] {
			t.Fatalf("duplicate scenario %s", c.Key())
		}
		if c.Seed != c.DeriveSeed(m.RootSeed) {
			t.Fatalf("scenario %s expanded with seed %d, DeriveSeed says %d", c.Key(), c.Seed, c.DeriveSeed(m.RootSeed))
		}
		out[c.Key()] = true
	}
	return out
}

// TestShardPartitionProperty: for several shard counts, each scenario
// lands in the shard its prefixed key hashes to, the shards are pairwise
// disjoint and their union is exactly the unsharded expansion.
func TestShardPartitionProperty(t *testing.T) {
	m := shardTestMatrix()
	full := keySet(t, m)
	if len(full) < 20 {
		t.Fatalf("matrix too small for a meaningful partition test: %d scenarios", len(full))
	}
	for _, count := range []int{1, 2, 3, 5, 8} {
		union := map[string]bool{}
		for i := 0; i < count; i++ {
			shard, err := m.Shard(i, count)
			if err != nil {
				t.Fatal(err)
			}
			for key := range keySet(t, shard) {
				if got := int(hashString(shardPrefix+key) % uint64(count)); count > 1 && got != i {
					t.Fatalf("count=%d: scenario %s expanded into shard %d, its key hashes to %d", count, key, i, got)
				}
				if union[key] {
					t.Fatalf("count=%d: scenario %s appears in two shards", count, key)
				}
				union[key] = true
			}
		}
		if len(union) != len(full) {
			t.Fatalf("count=%d: union has %d scenarios, full matrix %d", count, len(union), len(full))
		}
		for key := range union {
			if !full[key] {
				t.Fatalf("count=%d: union scenario %s not in full matrix", count, key)
			}
		}
	}
}

// TestShardAssignmentStableUnderReordering pins that a scenario's shard
// depends only on its canonical key: permuting every matrix dimension
// list leaves each shard's key set unchanged.
func TestShardAssignmentStableUnderReordering(t *testing.T) {
	m := shardTestMatrix()
	permuted := m
	permuted.Systems = []string{"Algorand", "Hyperledger", "Bitcoin", "Ethereum"}
	permuted.Links = []string{LinkPsync, LinkAsync, LinkSync}
	permuted.Adversaries = []string{AdvSelfish, AdvNone}
	permuted.Ns = []int{8, 4}

	for i := 0; i < 3; i++ {
		a, err := m.Shard(i, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := permuted.Shard(i, 3)
		if err != nil {
			t.Fatal(err)
		}
		ka, kb := keySet(t, a), keySet(t, b)
		if len(ka) != len(kb) {
			t.Fatalf("shard %d: %d vs %d scenarios after permutation", i, len(ka), len(kb))
		}
		for key := range ka {
			if !kb[key] {
				t.Fatalf("shard %d: scenario %s migrated shards under reordering", i, key)
			}
		}
	}
}

// TestShardValidation pins the failure modes: bad indices fail loudly in
// both Shard and Configs.
func TestShardValidation(t *testing.T) {
	m := shardTestMatrix()
	if _, err := m.Shard(0, 0); err == nil {
		t.Error("Shard accepted count 0")
	}
	if _, err := m.Shard(2, 2); err == nil {
		t.Error("Shard accepted index == count")
	}
	if _, err := m.Shard(-1, 2); err == nil {
		t.Error("Shard accepted a negative index")
	}
	bad := m
	bad.ShardIndex, bad.ShardCount = 5, 2
	if _, err := bad.Configs(); err == nil {
		t.Error("Configs accepted an out-of-range shard index")
	}
	neg := m
	neg.ShardCount = -1
	if _, err := neg.Configs(); err == nil {
		t.Error("Configs accepted a negative shard count")
	}
}
