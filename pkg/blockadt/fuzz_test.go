package blockadt

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"blockadt/internal/prng"
)

// FuzzDecodeReport feeds arbitrary bytes to DecodeReport, the decoder
// `btadt diff` runs over report files it is handed. It must never
// panic, and a report it accepts must encode to a fixed point: decoding
// EncodeJSON's output and encoding again yields the same bytes. The
// seed corpus under testdata/fuzz holds an excerpt of the CI sweep
// baseline and malformed variants of it.
func FuzzDecodeReport(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		rep, err := DecodeReport(raw)
		if err != nil {
			return
		}
		once, err := rep.EncodeJSON()
		if err != nil {
			t.Fatalf("EncodeJSON of an accepted report: %v", err)
		}
		again, err := DecodeReport(once)
		if err != nil {
			t.Fatalf("DecodeReport rejected its own encoding: %v\n%s", err, once)
		}
		twice, err := again.EncodeJSON()
		if err != nil {
			t.Fatalf("EncodeJSON of the re-decoded report: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("encoding is not a fixed point:\n--- once ---\n%s--- twice ---\n%s", once, twice)
		}
	})
}

// FuzzScenarioKey pins the key builder three ways. Scenario.Key, the
// run-store key, the derived seed and the shard hash equal the fmt
// formulas they replaced (kept below as the reference), so existing
// stores, sweep ids and seeds survive. And over names and parameters
// without '|', two scenarios get equal keys only when their key
// coordinates are equal: α at four decimals, and the topology
// parameters only under a named topology. Each input packs a scenario's
// six strings as "system;link;adversary;linkParams;topology;topoParams".
// The seed corpus under testdata/fuzz covers α rounding at the fourth
// decimal, link parameters with δ, a topology with and without
// parameters, and negative and zero N.
func FuzzScenarioKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, namesA, namesB string, alphaA, alphaB float64,
		nA, bA, sA, nB, bB, sB int, root, seed uint64, metrics string) {
		a := fuzzScenario(namesA, alphaA, nA, bA, sA, seed)
		b := fuzzScenario(namesB, alphaB, nB, bB, sB, seed)
		names := strings.Split(metrics, ",")
		for _, c := range []Scenario{a, b} {
			if got, want := c.Key(), fmtScenarioKey(c); got != want {
				t.Fatalf("Key() = %q, fmt formula %q", got, want)
			}
			if got, want := storeKeys(root, []Scenario{c}, metricSet(names))[0], fmtStoreKey(root, c, names); got != want {
				t.Fatalf("store key = %q, fmt formula %q", got, want)
			}
			if got, want := c.DeriveSeed(root), prng.Mix(root, hashString(fmtScenarioKey(c))); got != want {
				t.Fatalf("DeriveSeed = %d, over the fmt key %d", got, want)
			}
			if got, want := shardOf(c.appendKey([]byte(shardPrefix)), 7), int(hashString("shard|"+fmtScenarioKey(c))%7); got != want {
				t.Fatalf("shard = %d, over the fmt key %d", got, want)
			}
		}
		if strings.Contains(namesA+namesB, "|") {
			return
		}
		if sameKey, sameCoords := a.Key() == b.Key(), keyCoords(a) == keyCoords(b); sameKey != sameCoords {
			t.Fatalf("equal keys %v but equal coordinates %v:\n%+v -> %q\n%+v -> %q", sameKey, sameCoords, a, a.Key(), b, b.Key())
		}
	})
}

// fuzzScenario unpacks one FuzzScenarioKey input.
func fuzzScenario(names string, alpha float64, n, blocks, seedIndex int, seed uint64) Scenario {
	f := append(strings.SplitN(names, ";", 6), make([]string, 6)...)
	return Scenario{
		System: f[0], Link: f[1], Adversary: f[2], LinkParams: f[3], Topology: f[4], TopoParams: f[5],
		Alpha: alpha, N: n, Blocks: blocks, SeedIndex: seedIndex, Seed: seed,
	}
}

// fmtScenarioKey is the fmt formula Scenario.Key replaced.
func fmtScenarioKey(c Scenario) string {
	key := fmt.Sprintf("%s|%s|%s|a=%.4f|n=%d|b=%d|s=%d",
		c.System, c.Link, c.Adversary, c.Alpha, c.N, c.Blocks, c.SeedIndex)
	if c.LinkParams != "" {
		key += "|lp=" + c.LinkParams
	}
	if c.Topology != "" {
		key += "|topo=" + c.Topology
		if c.TopoParams != "" {
			key += "|tp=" + c.TopoParams
		}
	}
	return key
}

// fmtStoreKey is the fmt formula the run-store key replaced.
func fmtStoreKey(rootSeed uint64, cfg Scenario, metricNames []string) string {
	names := append([]string(nil), metricNames...)
	sort.Strings(names)
	uniq := names[:0]
	for i, n := range names {
		if i == 0 || n != names[i-1] {
			uniq = append(uniq, n)
		}
	}
	return fmt.Sprintf("%s|root=%d|%s|seed=%d|metrics=%s",
		EngineVersion, rootSeed, fmtScenarioKey(cfg), cfg.Seed, strings.Join(uniq, ","))
}

// keyCoordinates are the parts of a scenario its key distinguishes.
type keyCoordinates struct {
	system, link, adversary, linkParams, topology, topoParams, alpha string
	n, blocks, seedIndex                                             int
}

func keyCoords(c Scenario) keyCoordinates {
	k := keyCoordinates{
		system: c.System, link: c.Link, adversary: c.Adversary, linkParams: c.LinkParams,
		topology: c.Topology, alpha: fmt.Sprintf("%.4f", c.Alpha),
		n: c.N, blocks: c.Blocks, seedIndex: c.SeedIndex,
	}
	if c.Topology != "" {
		k.topoParams = c.TopoParams
	}
	return k
}
