package blockadt

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blockadt/internal/chains"
	"blockadt/internal/netsim"
)

// TestLookupMissTyped pins the typed-error contract across every façade
// lookup: a miss is an *UnknownNameError matching the ErrUnknownName
// sentinel, carrying the registry kind, the missed name and the
// registered alternatives, with the historical message text intact.
func TestLookupMissTyped(t *testing.T) {
	cases := []struct {
		kind   string
		lookup func(string) error
		sample string // a name that must appear in Registered
	}{
		{"system", func(n string) error { _, err := LookupSystem(n); return err }, "Bitcoin"},
		{"oracle", func(n string) error { _, err := LookupOracle(n); return err }, "prodigal"},
		{"selector", func(n string) error { _, err := LookupSelector(n); return err }, "longest"},
		{"link", func(n string) error { _, err := LookupLink(n); return err }, LinkSync},
		{"adversary", func(n string) error { _, err := LookupAdversary(n); return err }, AdvSelfish},
		{"topology", func(n string) error { _, err := LookupTopology(n); return err }, TopoGossip},
		{"metric", func(n string) error { _, err := LookupMetric(n); return err }, MetricForkRate},
	}
	for _, c := range cases {
		t.Run(c.kind, func(t *testing.T) {
			err := c.lookup("no-such-name")
			if err == nil {
				t.Fatal("expected a lookup miss")
			}
			if !errors.Is(err, ErrUnknownName) {
				t.Fatalf("errors.Is(err, ErrUnknownName) = false for %v", err)
			}
			var unknown *UnknownNameError
			if !errors.As(err, &unknown) {
				t.Fatalf("errors.As(&UnknownNameError) = false for %v", err)
			}
			if unknown.Kind != c.kind || unknown.Name != "no-such-name" {
				t.Fatalf("got Kind %q Name %q, want %q %q", unknown.Kind, unknown.Name, c.kind, "no-such-name")
			}
			found := false
			for _, name := range unknown.Registered {
				if name == c.sample {
					found = true
				}
			}
			if !found {
				t.Fatalf("Registered should include %q, got %v", c.sample, unknown.Registered)
			}
			want := fmt.Sprintf("blockadt: unknown %s %q (registered: %s)",
				c.kind, "no-such-name", strings.Join(unknown.Registered, ", "))
			if err.Error() != want {
				t.Fatalf("message drifted:\n got %q\nwant %q", err.Error(), want)
			}
		})
	}
}

// TestLookupHit guards the non-error path: a registered name resolves
// without an error on every registry.
func TestLookupHit(t *testing.T) {
	if _, err := LookupSystem("Bitcoin"); err != nil {
		t.Fatal(err)
	}
	if _, err := LookupLink(LinkSync); err != nil {
		t.Fatal(err)
	}
	if _, err := LookupMetric(MetricForkRate); err != nil {
		t.Fatal(err)
	}
}

// panicLink is a hidden link whose model panics while a scenario builds
// it, as a simulator safety cap panics mid-run, but only while
// panicArmed is set; otherwise it is the synchronous model, so the
// registry-wide tests that run every registered link see a working one.
const panicLink = "test-panics"

var panicArmed atomic.Bool

// registerPanicLink registers panicLink once and returns its name.
func registerPanicLink() string {
	if _, err := LookupLink(panicLink); err != nil {
		RegisterLink(LinkSpec{
			Name:        panicLink,
			Description: "test-only link whose model panics while armed",
			Link: chains.LinkPlan{Regime: "panic", Build: func(p chains.Params) netsim.LinkModel {
				if panicArmed.Load() {
					// Stay in flight a while, so concurrent identical
					// sweeps coalesce on the panicking scenario.
					time.Sleep(30 * time.Millisecond)
					panic("link model exploded")
				}
				return netsim.Synchronous{Delta: p.Delta}
			}},
			Hidden: true,
		})
	}
	return panicLink
}

// TestScenarioPanicIsTypedError: a scenario that panics on a pool worker
// fails its sweep with a *ScenarioPanicError naming the scenario, from
// Run and from Stream, instead of taking the process down.
func TestScenarioPanicIsTypedError(t *testing.T) {
	m := Matrix{Systems: []string{"Bitcoin"}, Links: []string{LinkSync, registerPanicLink()}, Seeds: 2, TargetBlocks: 5, RootSeed: 3}
	panicArmed.Store(true)
	defer panicArmed.Store(false)
	configs, err := m.Configs()
	if err != nil {
		t.Fatal(err)
	}
	panicking := map[string]bool{}
	for _, cfg := range configs {
		if cfg.Link == panicLink {
			panicking[cfg.Key()] = true
		}
	}
	check := func(where string, err error) {
		t.Helper()
		var pe *ScenarioPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: want a *ScenarioPanicError, got %v", where, err)
		}
		if !panicking[pe.Key] || pe.Value != "link model exploded" || len(pe.Stack) == 0 {
			t.Fatalf("%s: error names scenario %q, value %v, %d stack bytes", where, pe.Key, pe.Value, len(pe.Stack))
		}
		if !strings.Contains(err.Error(), pe.Key) || !strings.Contains(err.Error(), "link model exploded") {
			t.Fatalf("%s: message %q should name the scenario and the panic", where, err)
		}
	}
	rep, err := Run(m, 2)
	if rep != nil {
		t.Fatal("Run: a sweep with a panicking scenario returned a report")
	}
	check("Run", err)
	var streamErr error
	for _, err := range Stream(context.Background(), m, 2) {
		if err != nil {
			streamErr = err
			break
		}
	}
	check("Stream", streamErr)
}

// TestCoalescedScenarioPanicFailsEverySweep: sweeps that share a flight
// group and wait on a panicking scenario's leader fail with its
// *ScenarioPanicError too, instead of reporting an empty result for it.
func TestCoalescedScenarioPanicFailsEverySweep(t *testing.T) {
	m := Matrix{Systems: []string{"Bitcoin"}, Links: []string{registerPanicLink()}, TargetBlocks: 5, RootSeed: 5}
	panicArmed.Store(true)
	defer panicArmed.Store(false)
	const clients = 8
	flight := NewSingleflight()
	censuses := make([]Census, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, errs[c] = Run(m, 1, WithSingleflight(flight), WithCensus(&censuses[c]))
		}(c)
	}
	wg.Wait()
	var coalesced uint64
	for c, err := range errs {
		var pe *ScenarioPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("client %d: want a *ScenarioPanicError, got %v", c, err)
		}
		coalesced += censuses[c].Coalesced()
	}
	if coalesced == 0 {
		t.Fatal("no sweep waited on another's flight; the test exercised nothing")
	}
}
