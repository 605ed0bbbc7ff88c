package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadedLayers are the per-layer metrics each workload exists to load;
// each must be non-zero there.
var loadedLayers = map[string][]string{
	"ci-sweep": {
		"chains.ms_per_scenario", "chains.ns_per_message", "chains.ticks_per_scenario",
		"netsim.messages_per_scenario", "history.reads_per_scenario", "history.ops_per_scenario",
		"parallel.busy_share", "parallel.straggler_share", "parallel.speedup",
		"trace.coverage_share",
	},
	"long-chain": {
		"consistency.ms_per_scenario", "consistency.ns_per_read", "fairness.ms_per_scenario",
		"metrics.ms_per_scenario", "runtime.gc_cpu_share", "runtime.alloc_mb_per_scenario",
		"runtime.cpu_ms_per_scenario", "trace.coverage_share",
	},
	"serve-cached": {
		"encode.us_per_scenario", "decode.us_per_scenario", "encode.bytes_per_scenario",
		"runstore.get_us_p50", "runstore.put_us_p50", "runstore.hit_share", "runstore.lookups",
		"runstore.bytes_read_per_scenario", "serve.engine_ms_per_request",
		"serve.overhead_ms_per_request", "serve.simulated_share", "serve.coalesced_share",
		"trace.coverage_share",
	},
}

// TestSmoke runs every workload at a short length in both passes. Each
// pass must pass its output checks and report exactly the metrics
// BENCHMARK.json lists, each with its unit; end-to-end metrics must be
// positive and each workload's loaded layers non-zero.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		sw := sw
		t.Run(sw.Name, func(t *testing.T) {
			o := options{workload: sw.Name, seed: 7, seconds: 0.5, root: "..", work: t.TempDir()}
			res := runChecked(t, o)
			if len(res.Metrics) != len(spec.EndToEnd) {
				t.Errorf("untraced pass reports %d metrics, want %d", len(res.Metrics), len(spec.EndToEnd))
			}
			for _, want := range spec.EndToEnd {
				got, ok := res.Metrics[want.Name]
				if !ok || got.Unit != want.Unit || got.Value <= 0 {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", want.Name, got, ok, want.Unit)
				}
			}

			o.trace = true
			res = runChecked(t, o)
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced pass reports %d metrics, want %d", len(res.Metrics), len(spec.PerLayer))
			}
			for _, want := range spec.PerLayer {
				if got, ok := res.Metrics[want.Name]; !ok || got.Unit != want.Unit {
					t.Errorf("%s = %+v (present %v), want unit %s", want.Name, got, ok, want.Unit)
				}
			}
			for _, name := range loadedLayers[sw.Name] {
				if res.Metrics[name].Value == 0 {
					t.Errorf("%s is 0 on %s", name, sw.Name)
				}
			}
		})
	}
}

func runChecked(t *testing.T, o options) result {
	t.Helper()
	res, err := run(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("trace=%v: correct %v, %d of %d failed", o.trace, res.Correct, res.Failed, res.Attempted)
	}
	return res
}
