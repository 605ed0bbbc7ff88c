package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up. setup_s is the
// median, so the first set-up's one-off costs (page faults, heap growth)
// and one slow set-up do not move it.
const setupReps = 5

// warmUp is how long the closed loop runs untimed before the timed
// phase; requests that fail while warming up count as failed too. The
// first seconds of a process run measurably slower.
const warmUp = 2 * time.Second

// loadResult is what one closed-loop phase measured.
type loadResult struct {
	attempted, failed int
	scenarios         int
	wall              time.Duration
	latencies         []float64 // milliseconds, one per attempted request
}

// closedLoop runs callers goroutines. Each sends its next request only
// after the previous one returned, until d has passed. Requests are
// numbered from first in the order they are issued, so request r names
// the same inputs on every run with the same seed. do returns the number
// of scenarios the request completed, or an error when it failed or its
// output was wrong.
func closedLoop(callers int, d time.Duration, first int, log io.Writer, do func(r int) (int, error)) loadResult {
	type callerStats struct {
		lat               []float64
		failed, scenarios int
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		shown int
	)
	next.Store(int64(first))
	stats := make([]callerStats, callers)
	start := time.Now()
	deadline := start.Add(d)
	for c := range stats {
		wg.Add(1)
		go func(st *callerStats) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := int(next.Add(1) - 1)
				t0 := time.Now()
				n, err := do(r)
				st.lat = append(st.lat, float64(time.Since(t0).Nanoseconds())/1e6)
				if err != nil {
					st.failed++
					mu.Lock()
					if shown < 5 {
						fmt.Fprintf(log, "request %d failed: %v\n", r, err)
						shown++
					}
					mu.Unlock()
					continue
				}
				st.scenarios += n
			}
		}(&stats[c])
	}
	wg.Wait()
	out := loadResult{wall: time.Since(start)}
	for _, st := range stats {
		out.latencies = append(out.latencies, st.lat...)
		out.failed += st.failed
		out.scenarios += st.scenarios
	}
	out.attempted = len(out.latencies)
	return out
}

// endToEnd is the untraced pass: set the workload up setupReps times,
// then run its closed loop and report the end-to-end metrics.
func endToEnd(w workload, o options, log io.Writer) (result, error) {
	var (
		s      session
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return result{}, err
			}
		}
		t0 := time.Now()
		var err error
		s, err = w.setup(o)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	warm := closedLoop(w.callers, min(warmUp, o.duration()), 0, log, s.do)
	setupPeak := peakRSSMB()
	stop, peaks := make(chan struct{}), make(chan []float64)
	go func() { peaks <- windowPeaks(o.duration()/rssWindows, stop) }()
	lr := closedLoop(w.callers, o.duration(), warm.attempted, log, s.do)
	close(stop)
	windows := <-peaks
	lr.failed += warm.failed
	late, err := s.verify()
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, fmt.Errorf("%s verify: %w", w.name, err)
	}
	failed := lr.failed + late
	fmt.Fprintf(log, "%s: %d requests (%d failed, failed_share %.4f), %d scenarios in %.2fs, setups %v s, peak RSS %.1f MB before the timed phase, per window %.1f MB\n",
		w.name, lr.attempted, failed, ratio(float64(failed), float64(lr.attempted)), lr.scenarios, lr.wall.Seconds(), setups, setupPeak, windows)
	return result{
		Correct:   failed == 0 && lr.attempted > 0,
		Attempted: lr.attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":         {median(setups), "s"},
			"scenarios_per_s": {float64(lr.scenarios) / lr.wall.Seconds(), "1/s"},
			"latency_p50_ms":  {quantile(lr.latencies, 0.50), "ms"},
			"latency_p90_ms":  {quantile(lr.latencies, 0.90), "ms"},
			"peak_rss_mb":     {median(windows), "MB"},
		},
	}, nil
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// rssWindows is how many windows the timed phase's peak resident set
// is measured in. peak_rss_mb is the median window's peak, so a rare
// spike (the GC falling behind while the host stalls the process) does
// not decide it.
const rssWindows = 10

// windowPeaks measures the peak resident set in consecutive windows of
// the given length until stop is closed, and returns each full window's
// peak (the peak so far when no window completed).
func windowPeaks(window time.Duration, stop <-chan struct{}) []float64 {
	resetPeakRSS()
	tick := time.NewTicker(window)
	defer tick.Stop()
	var out []float64
	for {
		select {
		case <-stop:
			if len(out) == 0 {
				out = append(out, peakRSSMB())
			}
			return out
		case <-tick.C:
			out = append(out, peakRSSMB())
			resetPeakRSS()
		}
	}
}

// resetPeakRSS restarts the kernel's high-water mark of the process's
// resident set (VmHWM) from the current resident set, so peakRSSMB
// measures only what follows. It reports whether the kernel allowed it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the process's peak resident set: VmHWM since the last
// resetPeakRSS, or since the process started when reset is not allowed.
func peakRSSMB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
