package blockadt

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestRegistrationOrderIsTable1 pins the registration order of the
// built-in systems to the paper's Table 1 row order — the default Systems
// dimension of a Matrix, and therefore the byte layout of every sweep
// report.
func TestRegistrationOrderIsTable1(t *testing.T) {
	want := []string{"Bitcoin", "Ethereum", "Algorand", "ByzCoin", "PeerCensus", "RedBelly", "Hyperledger"}
	got := SystemNames()
	if len(got) < len(want) {
		t.Fatalf("registered %d systems, want at least %d", len(got), len(want))
	}
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("system %d registered as %q, want %q (registration order is the Table 1 contract)", i, got[i], name)
		}
	}
}

// TestRegistriesPopulated is the in-process version of the `btadt list`
// smoke test: every registry has entries and every entry carries a
// description.
func TestRegistriesPopulated(t *testing.T) {
	if len(Systems()) == 0 || len(Oracles()) == 0 || len(Selectors()) == 0 ||
		len(Links()) == 0 || len(Adversaries()) == 0 {
		t.Fatal("a registry is empty: a registration init() did not run")
	}
	for _, s := range Systems() {
		if s.Description == "" || s.Refinement == "" || s.Oracle == "" || s.Selector == "" {
			t.Errorf("system %q registered with incomplete spec", s.Name)
		}
		if _, err := LookupOracle(s.Oracle); err != nil {
			t.Errorf("system %q names unregistered oracle %q", s.Name, s.Oracle)
		}
		if _, err := LookupSelector(s.Selector); err != nil {
			t.Errorf("system %q names unregistered selector %q", s.Name, s.Selector)
		}
	}
}

// TestRegistryRoundTrip asserts the façade's core contract: every
// registered system name constructs a live System via New, the System's
// four operations work, and a 1-config sweep of the name is deterministic
// — two runs with the same root seed produce byte-identical canonical
// JSON.
func TestRegistryRoundTrip(t *testing.T) {
	for _, name := range SystemNames() {
		t.Run(name, func(t *testing.T) {
			sys, err := New(name, WithSeed(7))
			if err != nil {
				t.Fatalf("New(%q): %v", name, err)
			}
			if sys.Name() != name {
				t.Fatalf("instance name %q, want %q", sys.Name(), name)
			}
			ok, err := sys.Append(0, Block{ID: "rt-1"})
			if err != nil {
				t.Fatalf("Append: %v", err)
			}
			if !ok {
				t.Fatal("Append refused with an always-granting default merit")
			}
			chain := sys.Read(0)
			if got := chain.Tip().ID; got != "rt-1" {
				t.Fatalf("Read tip %q, want rt-1", got)
			}
			if reads := len(sys.History().Reads()); reads != 1 {
				t.Fatalf("history recorded %d reads, want 1", reads)
			}
			if _, err := sys.Finality(); err != nil {
				t.Fatalf("Finality: %v", err)
			}

			m := Matrix{Systems: []string{name}, TargetBlocks: 12, RootSeed: 11}
			first, err := Run(m, 1)
			if err != nil {
				t.Fatalf("sweep run 1: %v", err)
			}
			second, err := Run(m, 1)
			if err != nil {
				t.Fatalf("sweep run 2: %v", err)
			}
			if first.Total != 1 {
				t.Fatalf("1-config matrix ran %d configs", first.Total)
			}
			j1, err := first.EncodeJSON()
			if err != nil {
				t.Fatal(err)
			}
			j2, err := second.EncodeJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(j1, j2) {
				t.Fatalf("same seed, different JSON:\n--- first ---\n%s\n--- second ---\n%s", j1, j2)
			}
		})
	}
}

// TestUnknownNamesFailLoudly covers the error path of every lookup the
// façade exposes: a typo must name the registered alternatives instead of
// silently doing nothing.
func TestUnknownNamesFailLoudly(t *testing.T) {
	if _, err := New("Dogecoin"); err == nil {
		t.Error("New accepted an unregistered system")
	} else if !strings.Contains(err.Error(), "Bitcoin") {
		t.Errorf("error %q does not name the registered alternatives", err)
	}
	if _, err := New("Bitcoin", WithSelector("wormhole")); err == nil {
		t.Error("New accepted an unregistered selector")
	}
	if _, err := New("Bitcoin", WithOracle("delphi")); err == nil {
		t.Error("New accepted an unregistered oracle")
	}
	if _, err := Simulate("Dogecoin"); err == nil {
		t.Error("Simulate accepted an unregistered system")
	}
	if _, err := Simulate("Bitcoin", WithLink("wormhole")); err == nil {
		t.Error("Simulate accepted an unregistered link")
	}
	if _, err := Simulate("Hyperledger", WithLink(LinkAsync)); err == nil {
		t.Error("Simulate accepted a link the system does not implement")
	}
	if _, err := SimulateAdversary("Bitcoin", "gremlin"); err == nil {
		t.Error("SimulateAdversary accepted an unregistered adversary")
	}
	if _, err := SimulateAdversary("Hyperledger", AdvSelfish); err == nil {
		t.Error("SimulateAdversary accepted a system the adversary does not support")
	}
	if _, err := NewSelector("wormhole"); err == nil {
		t.Error("NewSelector accepted an unregistered name")
	}
	if _, err := NewOracleByName("delphi", OracleConfig{}); err == nil {
		t.Error("NewOracleByName accepted an unregistered name")
	}
	if _, err := SimulateAdversary("Bitcoin", AdvSelfish, WithLink("wormhole")); err == nil {
		t.Error("SimulateAdversary accepted an unregistered link")
	}
	for _, m := range []Matrix{
		{Systems: []string{"Dogecoin"}},
		{Links: []string{"wormhole"}},
		{Adversaries: []string{"gremlin"}},
		{Adversaries: []string{AdvSelfish}, Alpha: 1.5},
		{Adversaries: []string{AdvSelfish}, Alpha: -0.1},
		{Systems: []string{"Bitcoin"}, Ns: []int{4, -1}},
	} {
		if _, err := m.Configs(); err == nil {
			t.Errorf("matrix %+v expanded despite an unregistered dimension", m)
		}
	}
	for name, cfg := range map[string]Scenario{
		"unknown system":     {System: "Dogecoin", Link: LinkSync, Adversary: AdvNone, N: 4, Blocks: 5},
		"unknown link":       {System: "Bitcoin", Link: "wormhole", Adversary: AdvNone, N: 4, Blocks: 5},
		"unknown adversary":  {System: "Bitcoin", Link: LinkSync, Adversary: "gremlin", N: 4, Blocks: 5},
		"unsupported link":   {System: "Hyperledger", Link: LinkAsync, Adversary: AdvNone, N: 4, Blocks: 5},
		"unsupported combo":  {System: "Hyperledger", Link: LinkSync, Adversary: AdvSelfish, Alpha: 0.3, N: 4, Blocks: 5},
		"degenerate alpha":   {System: "Bitcoin", Link: LinkSync, Adversary: AdvSelfish, Alpha: 0, N: 4, Blocks: 5},
		"out-of-range alpha": {System: "Bitcoin", Link: LinkSync, Adversary: AdvSelfish, Alpha: 1.5, N: 4, Blocks: 5},
		"negative n":         {System: "Bitcoin", Link: LinkSync, Adversary: AdvNone, N: -1, Blocks: 5},
	} {
		if _, err := RunScenario(cfg); err == nil {
			t.Errorf("RunScenario accepted a scenario with %s: %+v", name, cfg)
		}
	}
}

// TestOptionScopeEnforced pins the fail-loudly contract for options
// passed outside their documented scope: they must error, not be
// silently ignored.
func TestOptionScopeEnforced(t *testing.T) {
	if _, err := New("Bitcoin", WithBlocks(10)); err == nil {
		t.Error("New ignored WithBlocks instead of rejecting it")
	}
	if _, err := New("Bitcoin", WithLink(LinkSync)); err == nil {
		t.Error("New ignored WithLink instead of rejecting it")
	}
	if _, err := New("Bitcoin", WithAlpha(0.3)); err == nil {
		t.Error("New ignored WithAlpha instead of rejecting it")
	}
	if _, err := Simulate("Bitcoin", WithSelector("ghost")); err == nil {
		t.Error("Simulate ignored WithSelector instead of rejecting it")
	}
	if _, err := Simulate("Bitcoin", WithOracleInstance(NewFrugalOracle(1, 1, 1))); err == nil {
		t.Error("Simulate ignored WithOracleInstance instead of rejecting it")
	}
	if _, err := Simulate("Bitcoin", WithAlpha(0.3)); err == nil {
		t.Error("Simulate ignored WithAlpha instead of rejecting it")
	}
	if _, err := SimulateAdversary("Bitcoin", AdvSelfish, WithFinalityDepth(3)); err == nil {
		t.Error("SimulateAdversary ignored WithFinalityDepth instead of rejecting it")
	}
	if _, err := SimulateAdversary("Bitcoin", AdvSelfish, WithAdversary(AdvSelfish)); err == nil {
		t.Error("SimulateAdversary ignored a redundant WithAdversary instead of rejecting it")
	}
	orc := NewFrugalOracle(1, 1, 1)
	if _, err := New("Bitcoin", WithOracleInstance(orc), WithSeed(42)); err == nil {
		t.Error("New ignored WithSeed alongside WithOracleInstance instead of rejecting the conflict")
	}
	if _, err := New("Bitcoin", WithOracleInstance(orc), WithMerits(1, 1)); err == nil {
		t.Error("New ignored WithMerits alongside WithOracleInstance instead of rejecting the conflict")
	}
	if _, err := Simulate("Algorand", WithMerits(0.6, 0.1, 0.1, 0.1, 0.1), WithN(5)); err == nil {
		t.Error("Simulate ignored WithMerits for a deterministic-grant system instead of rejecting it")
	}
	if _, err := Simulate("Bitcoin", WithMerits(0.5, 0.5), WithN(3)); err == nil {
		t.Error("Simulate accepted a merit vector shorter than the process count (the simulator would silently fall back to uniform)")
	}
	if _, err := SimulateAdversary("Bitcoin", AdvSelfish, WithMerits(0.5, 0.5)); err == nil {
		t.Error("SimulateAdversary ignored WithMerits instead of rejecting it (the adversary model derives merits from alpha)")
	}
}

// TestExpectedLevelFollowsLink pins the link-adjusted expectation the
// sweep engine uses, exposed to Simulate callers via ExpectedLevel.
func TestExpectedLevelFollowsLink(t *testing.T) {
	if lvl, err := ExpectedLevel("Hyperledger", LinkSync); err != nil || lvl != LevelSC {
		t.Errorf("ExpectedLevel(Hyperledger, sync) = %v, %v; want SC", lvl, err)
	}
	if lvl, err := ExpectedLevel("Bitcoin", LinkAsync); err != nil || lvl != LevelEC {
		t.Errorf("ExpectedLevel(Bitcoin, async) = %v, %v; want EC", lvl, err)
	}
	if _, err := ExpectedLevel("Hyperledger", LinkAsync); err == nil {
		t.Error("ExpectedLevel accepted a link the system does not implement")
	}
	if _, err := ExpectedLevel("Bitcoin", "wormhole"); err == nil {
		t.Error("ExpectedLevel accepted an unregistered link")
	}
}

// TestRunScenarioNormalizesN pins the honest-path entitlement vector to
// the simulators' N default: an N=0 scenario must not compare an 8-process
// run against an empty merit vector (which would report a fair run as
// TVD ≈ 0.5).
func TestRunScenarioNormalizesN(t *testing.T) {
	res, err := RunScenario(Scenario{System: "Bitcoin", Link: LinkSync, Adversary: AdvNone, Blocks: 20, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// An empty entitlement vector degenerates to exactly 0.5; uniform
	// merits over the 8 defaulted miners stay well below it.
	if res.FairnessTVD >= 0.4 {
		t.Fatalf("uniform mining reported TVD %.3f — the entitlement vector did not match the run's processes", res.FairnessTVD)
	}
}

// TestRunScenarioMatchesSweep pins the exported single-scenario entry
// point to the engine: running a Configs-expanded scenario directly
// reproduces the sweep's result for it.
func TestRunScenarioMatchesSweep(t *testing.T) {
	m := Matrix{Systems: []string{"Bitcoin"}, TargetBlocks: 10, RootSeed: 5}
	rep, err := Run(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunScenario(rep.Results[0].Config)
	if err != nil {
		t.Fatal(err)
	}
	a, b := direct, rep.Results[0]
	a.WallNS, b.WallNS = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("RunScenario diverged from the sweep engine:\ndirect: %+v\nsweep:  %+v", a, b)
	}
}

// TestUserRegistrationExtends registers a toy system/link/adversary and
// asserts the registries make them constructible and sweepable by name —
// the plug-in contract docs/api.md documents.
func TestUserRegistrationExtends(t *testing.T) {
	bitcoin, err := LookupSystem("Bitcoin")
	if err != nil {
		t.Fatal(err)
	}
	// The registry is process-global and offers no unregistration (like
	// database/sql drivers), so guard for repeated runs (-count=2).
	if _, err := LookupSystem("TestCoin"); err != nil {
		RegisterSystem(SystemSpec{
			Name:        "TestCoin",
			Description: "test-only clone of Bitcoin",
			Refinement:  bitcoin.Refinement,
			Expected:    bitcoin.Expected,
			Oracle:      bitcoin.Oracle,
			Selector:    bitcoin.Selector,
			Run:         bitcoin.Run,
		})
	}
	if _, err := New("TestCoin"); err != nil {
		t.Fatalf("registered system not constructible: %v", err)
	}
	rep, err := Run(Matrix{Systems: []string{"TestCoin"}, TargetBlocks: 10, RootSeed: 3}, 1)
	if err != nil {
		t.Fatalf("registered system not sweepable: %v", err)
	}
	if rep.Total != 1 || !rep.Results[0].Match {
		t.Fatalf("TestCoin sweep: total=%d match=%v", rep.Total, rep.Results[0].Match)
	}
	// The clone shares Bitcoin's simulator and derives its seed from a
	// different canonical key, so its result must differ from Bitcoin's
	// at the same root seed — the per-name stream independence contract.
	bitRep, err := Run(Matrix{Systems: []string{"Bitcoin"}, TargetBlocks: 10, RootSeed: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bitRep.Results[0].Config.Seed == rep.Results[0].Config.Seed {
		t.Fatal("distinct system names derived the same scenario seed")
	}

	// A '|' in a name or in link/topology Params would let two
	// scenarios share one key; registration refuses it, like an empty
	// name, before touching the registry.
	for what, register := range map[string]func(){
		"system name":     func() { RegisterSystem(SystemSpec{Name: "Test|Coin", Run: bitcoin.Run}) },
		"link name":       func() { RegisterLink(LinkSpec{Name: "test|link"}) },
		"link params":     func() { RegisterLink(LinkSpec{Name: "test-link-pipe", Params: "p=0.1|x"}) },
		"topology params": func() { RegisterTopology(TopologySpec{Name: "test-topo-pipe", Params: "k=3|b=1"}) },
		"ensured name":    func() { linkRegistry.ensure("test|variant", LinkSpec{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a '|' in the %s did not panic", what)
				}
			}()
			register()
		}()
	}
	for _, name := range []string{"test-link-pipe", "test|variant"} {
		if _, err := LookupLink(name); err == nil {
			t.Errorf("rejected link %q was registered anyway", name)
		}
	}
	if _, err := LookupTopology("test-topo-pipe"); err == nil {
		t.Error("rejected topology was registered anyway")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	RegisterSystem(SystemSpec{Name: "TestCoin", Run: bitcoin.Run})
}

// TestProfileComposition pins the system → (oracle, selector) profiles a
// live instance composes by default.
func TestProfileComposition(t *testing.T) {
	cases := []struct {
		system, oracleName, selectorName string
	}{
		{"Bitcoin", "Θ_P", "heaviest"},
		{"Ethereum", "Θ_P", "ghost"},
		{"Hyperledger", "Θ_F,k=1", "single"},
	}
	for _, c := range cases {
		sys, err := New(c.system)
		if err != nil {
			t.Fatal(err)
		}
		if got := sys.Oracle().Name(); got != c.oracleName {
			t.Errorf("%s composed oracle %q, want %q", c.system, got, c.oracleName)
		}
		if got := sys.Selector().Name(); got != c.selectorName {
			t.Errorf("%s composed selector %q, want %q", c.system, got, c.selectorName)
		}
	}
}

// TestFinalityTracksDepth drives a live instance past the gadget depth
// and asserts the finalized prefix lags the selected chain by exactly d
// blocks.
func TestFinalityTracksDepth(t *testing.T) {
	const depth, total = 3, 8
	sys, err := New("Hyperledger", WithFinalityDepth(depth), WithSelector("longest"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if ok, err := sys.Append(0, Block{ID: BlockID(fmt.Sprintf("f%02d", i))}); err != nil || !ok {
			t.Fatalf("append %d: ok=%v err=%v", i, ok, err)
		}
	}
	fin, err := sys.Finality()
	if err != nil {
		t.Fatal(err)
	}
	// total appends + genesis, truncated by depth.
	if want := total + 1 - depth; len(fin) != want {
		t.Fatalf("finalized %d blocks, want %d", len(fin), want)
	}
}
