package main

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	rtmetrics "runtime/metrics"
	"sync/atomic"
	"time"

	"blockadt/pkg/blockadt"
	"blockadt/pkg/blockadt/serve"
)

// minReplay is the least time the traced pass spends replaying a
// workload's matrix layer by layer; short matrices are replayed again
// until it has passed.
const minReplay = time.Second

// layerTimes accumulates the replay's time and work per layer.
type layerTimes struct {
	scenarios                             int
	wall, chains, fairness, consistency   time.Duration
	metrics, encode, decode               time.Duration
	messages, ticks, reads, ops, encBytes int64
}

// replayed is the part of an engine Result the replay reproduces.
type replayed struct {
	level                       string
	blocks, forks               int
	ticks                       int64
	delivered, dropped          int
	fairnessTVD, adversaryShare float64
	metrics                     map[string]float64
}

func fromResult(r blockadt.Result) replayed {
	return replayed{
		level: r.Level, blocks: r.Blocks, forks: r.Forks, ticks: r.Ticks,
		delivered: r.Delivered, dropped: r.Dropped,
		fairnessTVD: r.FairnessTVD, adversaryShare: r.AdversaryShare,
		metrics: r.Metrics,
	}
}

// replayScenario runs one scenario through the layers' public entry
// points in the order the engine's runScenario calls them — simulate,
// fairness (honest runs), classify, metric collectors — and times each.
func replayScenario(cfg blockadt.Scenario, specs []blockadt.MetricSpec, acc *layerTimes) (replayed, error) {
	opts := []blockadt.Option{
		blockadt.WithN(cfg.N), blockadt.WithBlocks(cfg.Blocks),
		blockadt.WithSeed(cfg.Seed), blockadt.WithLink(cfg.Link),
	}
	if cfg.Topology != "" {
		opts = append(opts, blockadt.WithTopology(cfg.Topology))
	}
	adversarial := cfg.Adversary != "" && cfg.Adversary != blockadt.AdvNone
	var (
		out replayed
		res blockadt.SimResult
	)
	t := time.Now()
	if adversarial {
		ao, err := blockadt.SimulateAdversary(cfg.System, cfg.Adversary, append(opts, blockadt.WithAlpha(cfg.Alpha))...)
		if err != nil {
			return out, err
		}
		res, out.fairnessTVD, out.adversaryShare = ao.SimResult, ao.FairnessTVD, ao.AdversaryShare
	} else {
		var err error
		if res, err = blockadt.Simulate(cfg.System, opts...); err != nil {
			return out, err
		}
	}
	acc.chains += time.Since(t)

	if !adversarial {
		merits := make([]float64, cfg.N)
		for i := range merits {
			merits[i] = 1
		}
		t = time.Now()
		out.fairnessTVD = blockadt.AnalyzeFairness(res.History, merits).TVD
		acc.fairness += time.Since(t)
	}

	t = time.Now()
	cls := blockadt.ClassifyRun(blockadt.SimParams{N: cfg.N, TargetBlocks: cfg.Blocks, Seed: cfg.Seed}, res)
	acc.consistency += time.Since(t)

	t = time.Now()
	run := blockadt.MetricRun{
		N: cfg.N, TargetBlocks: cfg.Blocks,
		Blocks: res.Blocks, Forks: res.Forks, Ticks: res.Ticks,
		Delivered: res.Delivered, Dropped: res.Dropped, Bytes: res.Bytes,
		PartitionHeal: res.PartitionHeal, History: res.History,
		FairnessTVD: out.fairnessTVD, Adversarial: adversarial,
		AdversaryShare: out.adversaryShare, AdversaryMerit: cfg.Alpha,
	}
	out.metrics = make(map[string]float64, len(specs))
	for _, spec := range specs {
		if v, ok := spec.Compute(run); ok {
			out.metrics[spec.Name] = v
		}
	}
	acc.metrics += time.Since(t)

	out.level = cls.Level.String()
	out.blocks, out.forks, out.ticks = res.Blocks, res.Forks, res.Ticks
	out.delivered, out.dropped = res.Delivered, res.Dropped
	acc.messages += int64(res.Delivered + res.Dropped)
	acc.ticks += res.Ticks
	acc.reads += int64(len(res.History.Reads()))
	acc.ops += int64(len(res.History.Ops()))
	return out, nil
}

// replay replays every scenario of m until minReplay has passed and
// counts the scenarios whose replay differs from the engine's result.
// It also times JSON encoding and decoding of each engine result.
func replay(m blockadt.Matrix, want []blockadt.Result) (layerTimes, int, error) {
	var acc layerTimes
	configs, err := m.Configs()
	if err != nil {
		return acc, 0, err
	}
	if len(configs) != len(want) {
		return acc, 0, fmt.Errorf("matrix expands to %d scenarios, engine returned %d", len(configs), len(want))
	}
	specs := make([]blockadt.MetricSpec, 0, len(m.Metrics))
	for _, name := range m.Metrics {
		spec, err := blockadt.LookupMetric(name)
		if err != nil {
			return acc, 0, err
		}
		specs = append(specs, spec)
	}
	mismatches := 0
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < minReplay; pass++ {
		for i, cfg := range configs {
			t := time.Now()
			got, err := replayScenario(cfg, specs, &acc)
			if err != nil {
				return acc, mismatches, fmt.Errorf("replaying %s: %w", cfg.Key(), err)
			}
			acc.wall += time.Since(t)
			acc.scenarios++
			if !reflect.DeepEqual(got, fromResult(want[i])) {
				mismatches++
			}

			t = time.Now()
			enc, err := json.Marshal(want[i])
			acc.encode += time.Since(t)
			if err != nil {
				return acc, mismatches, err
			}
			acc.encBytes += int64(len(enc))
			var back blockadt.Result
			t = time.Now()
			err = json.Unmarshal(enc, &back)
			acc.decode += time.Since(t)
			if err != nil {
				return acc, mismatches, err
			}
		}
	}
	return acc, mismatches, nil
}

// spanSum is a blockadt.Tracer that totals the engine's scenario spans.
type spanSum struct {
	busyNS atomic.Int64
}

func (s *spanSum) ObserveSpan(sp blockadt.Span) { s.busyNS.Add(sp.TotalNS) }

// runtimeSample is a reading of the Go runtime's and the kernel's
// process counters.
type runtimeSample struct {
	gcCPU, usedCPU float64 // seconds, the runtime's estimates
	allocBytes     uint64
	cpu            time.Duration
}

func readRuntime() runtimeSample {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	rtmetrics.Read(s)
	return runtimeSample{
		gcCPU:      s[0].Value.Float64(),
		usedCPU:    s[1].Value.Float64() - s[2].Value.Float64(),
		allocBytes: s[3].Value.Uint64(),
		cpu:        cpuTime(),
	}
}

// tracedRun is the layer-by-layer pass. It runs the workload's closed
// loop while reading the engine's own spans (blockadt.WithTracer, or
// serve's /metricsz) and the runtime's counters, then replays the
// workload's matrix through each layer's public entry point, checking
// the replay against the engine's results.
func tracedRun(w workload, o options, log io.Writer) (result, error) {
	s, err := w.setup(o)
	if err != nil {
		return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	res, err := traced(w, s, o, log)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	return res, err
}

func traced(w workload, s session, o options, log io.Writer) (result, error) {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// The closed loop, reading the engine's spans and reports, the
	// server's /metricsz and the runtime's counters around the timed phase.
	warm := closedLoop(w.callers, min(warmUp, o.duration()), 0, log, s.do)
	var (
		spans   spanSum
		reports reportLog
		before  metricsSnapshot
		pre     serve.SweepSummary
	)
	es, isEngine := s.(*engineSession)
	ss, isServe := s.(*serveSession)
	if isEngine {
		es.opts = []blockadt.RunOption{blockadt.WithTracer(&spans)}
		es.observe = reports.add
	}
	if isServe {
		var err error
		if before, err = ss.metricsz(); err != nil {
			return result{}, err
		}
		pre = ss.totals()
	}
	rt0 := readRuntime()
	lr := closedLoop(w.callers, o.duration(), warm.attempted, log, s.do)
	rt1 := readRuntime()
	lr.failed += warm.failed
	if isEngine {
		es.opts, es.observe = nil, nil
	}
	late, err := s.verify()
	if err != nil {
		return result{}, err
	}
	scenarios := float64(lr.scenarios)
	set("runtime.gc_cpu_share", ratio(rt1.gcCPU-rt0.gcCPU, rt1.usedCPU-rt0.usedCPU), "ratio")
	set("runtime.alloc_mb_per_scenario", ratio(float64(rt1.allocBytes-rt0.allocBytes)/1e6, scenarios), "MB")
	set("runtime.cpu_ms_per_scenario", ratio(float64((rt1.cpu-rt0.cpu).Nanoseconds())/1e6, scenarios), "ms")

	// Load balance of the engine's worker pool, from its spans and reports.
	var straggler, sweepWall, capacity float64
	for _, rep := range reports.reports {
		var slowest int64
		for _, r := range rep.Results {
			slowest = max(slowest, r.WallNS)
		}
		straggler += float64(slowest)
		sweepWall += float64(rep.WallNS)
		capacity += float64(rep.WallNS) * float64(rep.Parallelism)
	}
	set("parallel.busy_share", ratio(float64(spans.busyNS.Load()), capacity), "ratio")
	set("parallel.straggler_share", ratio(straggler, sweepWall), "ratio")

	// The server's own spans and store counters, from /metricsz; zero on
	// the workloads without a server.
	var (
		sv    serveFigures
		probe probeResult
	)
	if isServe {
		after, err := ss.metricsz()
		if err != nil {
			return result{}, err
		}
		sv = serveLayers(before, after, pre, ss.totals(), lr)
		if probe, err = coalesceProbe(ss); err != nil {
			return result{}, err
		}
	}
	set("runstore.get_us_p50", sv.getUS, "us")
	set("runstore.put_us_p50", sv.putUS, "us")
	set("runstore.hit_share", sv.hitShare, "ratio")
	set("runstore.lookups", sv.lookups, "count")
	set("runstore.bytes_read_per_scenario", sv.bytesRead, "B")
	set("serve.engine_ms_per_request", sv.engineMS, "ms")
	set("serve.overhead_ms_per_request", sv.overheadMS, "ms")
	set("serve.simulated_share", sv.simulatedShare, "ratio")
	set("serve.coalesced_share", probe.coalescedShare, "ratio")

	// The layer-by-layer replay, checked against the engine's results.
	rm := s.replayMatrix()
	serial, err := timedRuns(rm, 1)
	if err != nil {
		return result{}, err
	}
	wide, err := timedRuns(rm, nproc)
	if err != nil {
		return result{}, err
	}
	set("parallel.speedup", ratio(median(serial.walls), median(wide.walls)), "ratio")
	lt, mismatches, err := replay(rm, serial.report.Results)
	if err != nil {
		return result{}, err
	}
	n := float64(lt.scenarios)
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 / n }
	set("chains.ms_per_scenario", ms(lt.chains), "ms")
	set("chains.ns_per_message", ratio(float64(lt.chains.Nanoseconds()), float64(lt.messages)), "ns")
	set("chains.ticks_per_scenario", float64(lt.ticks)/n, "count")
	set("netsim.messages_per_scenario", float64(lt.messages)/n, "count")
	set("history.reads_per_scenario", float64(lt.reads)/n, "count")
	set("history.ops_per_scenario", float64(lt.ops)/n, "count")
	set("consistency.ms_per_scenario", ms(lt.consistency), "ms")
	set("consistency.ns_per_read", ratio(float64(lt.consistency.Nanoseconds()), float64(lt.reads)), "ns")
	set("fairness.ms_per_scenario", ms(lt.fairness), "ms")
	set("metrics.ms_per_scenario", ms(lt.metrics), "ms")
	set("encode.us_per_scenario", ms(lt.encode)*1e3, "us")
	set("decode.us_per_scenario", ms(lt.decode)*1e3, "us")
	set("encode.bytes_per_scenario", float64(lt.encBytes)/n, "B")
	layers := lt.chains + lt.fairness + lt.consistency + lt.metrics
	set("trace.coverage_share", ratio(float64(layers), float64(lt.wall)), "ratio")
	untraced := median(serial.walls) / float64(len(serial.report.Results))
	set("trace.overhead_share", ratio(float64(lt.wall.Nanoseconds())/n, untraced)-1, "ratio")

	failed := lr.failed + late + probe.failed + mismatches
	fmt.Fprintf(log, "%s traced: %d requests (%d failed), %d scenarios replayed (%d differ from the engine's results)\n",
		w.name, lr.attempted+probe.requests, lr.failed+late+probe.failed, lt.scenarios, mismatches)
	return result{
		Correct:   failed == 0 && lr.attempted > 0,
		Attempted: lr.attempted + probe.requests + lt.scenarios,
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// serveFigures are the serve and runstore layers' metrics.
type serveFigures struct {
	getUS, putUS, hitShare, lookups, bytesRead float64
	engineMS, overheadMS, simulatedShare       float64
}

// serveLayers derives the serve and runstore metrics of a timed phase
// from /metricsz and the request summaries before and after it.
func serveLayers(before, after metricsSnapshot, pre, post serve.SweepSummary, lr loadResult) serveFigures {
	hits := float64(after.Store.Hits - before.Store.Hits)
	lookups := hits + float64(after.Store.Misses-before.Store.Misses)
	engineMS := (phaseSum(after, "total") - phaseSum(before, "total")) / 1e6
	requests := float64(lr.attempted)
	return serveFigures{
		getUS:          phaseP50(after, "store_get", blockadt.SpanCacheHit) / 1e3,
		putUS:          phaseP50(after, "store_put", blockadt.SpanSimulated) / 1e3,
		hitShare:       ratio(hits, lookups),
		lookups:        lookups,
		bytesRead:      ratio(float64(after.Store.BytesRead-before.Store.BytesRead), hits),
		engineMS:       ratio(engineMS, requests),
		overheadMS:     ratio(sumOf(lr.latencies)-engineMS, requests),
		simulatedShare: ratio(float64(post.Simulated-pre.Simulated), float64(post.Total-pre.Total)),
	}
}

// timedSweeps is three untraced Run calls of one matrix.
type timedSweeps struct {
	walls  []float64 // nanoseconds
	report *blockadt.Report
}

func timedRuns(m blockadt.Matrix, parallelism int) (timedSweeps, error) {
	var out timedSweeps
	for i := 0; i < 3; i++ {
		rep, err := blockadt.Run(m, parallelism)
		if err != nil {
			return out, err
		}
		out.walls = append(out.walls, float64(rep.WallNS))
		out.report = rep
	}
	return out, nil
}

// coalesceRounds is how many matrices the coalescing probe submits.
const coalesceRounds = 4

// probeResult is what the coalescing probe measured.
type probeResult struct {
	requests, failed int
	coalescedShare   float64
}

// coalesceProbe has every client submit the same new matrix at once, a
// few times, and measures the share of its scenarios the server coalesced
// onto another request's simulation. The closed loop never has two
// identical fresh requests in flight, so this is how the coalescing path
// gets load.
func coalesceProbe(s *serveSession) (probeResult, error) {
	var out probeResult
	before := s.totals()
	for round := 0; round < coalesceRounds; round++ {
		sw, err := localSweep(table1Matrix(mix(s.seed, freshTag-2-uint64(round))))
		if err != nil {
			return out, err
		}
		errs := make(chan error, nproc)
		for c := 0; c < nproc; c++ {
			go func() {
				_, _, err := s.post(sw.body, &sw)
				errs <- err
			}()
		}
		for c := 0; c < nproc; c++ {
			out.requests++
			if err := <-errs; err != nil {
				out.failed++
			}
		}
	}
	after := s.totals()
	out.coalescedShare = ratio(float64(after.Coalesced-before.Coalesced), float64(after.Total-before.Total))
	return out, nil
}

// phaseP50 is the median of one span phase for one outcome, in ns.
func phaseP50(snap metricsSnapshot, phase, outcome string) float64 {
	for _, l := range snap.Latencies {
		if l.Phase == phase && l.Outcome == outcome {
			return l.P50NS
		}
	}
	return 0
}

// phaseSum totals one span phase over every outcome, in ns.
func phaseSum(snap metricsSnapshot, phase string) float64 {
	var sum float64
	for _, l := range snap.Latencies {
		if l.Phase == phase {
			sum += l.SumNS
		}
	}
	return sum
}

func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
