// Command perfbench is the repository's benchmark. One invocation runs one
// workload as a closed loop for a fixed time, checks every output, and
// prints its metrics as one JSON object on the last line of standard
// output. With -trace 1 it runs the layer-by-layer pass instead and prints
// the per-layer metrics. README.md lists the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"blockadt/pkg/blockadt"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance identifies the host and the build a result came from.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	CPU        string  `json:"cpu"`
	Revision   string  `json:"revision"`
	Engine     string  `json:"engineVersion"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced layer-by-layer pass and prints per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository root (holds SWEEP_baseline.json)")
	flag.StringVar(&o.work, "work", os.TempDir(), "directory for the files a workload writes")
	flag.Parse()
	o.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1, got %d", *trace)
	}
	if o.seconds <= 0 {
		fatalf("-seconds must be positive, got %v", o.seconds)
	}

	res, err := run(o, os.Stderr)
	if err != nil {
		fatalf("%v", err)
	}
	prov, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
	}{describe(o)})
	if err != nil {
		fatalf("encoding provenance: %v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(prov))
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// options are the command-line settings of one run.
type options struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      bool
	root, work string
}

func (o options) duration() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// run executes the selected pass and checks that every metric is a
// finite number.
func run(o options, log io.Writer) (result, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	var (
		res result
		err error
	)
	if o.trace {
		res, err = tracedRun(w, o, log)
	} else {
		res, err = endToEnd(w, o, log)
	}
	if err != nil {
		return result{}, err
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return result{}, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return res, nil
}

func describe(o options) provenance {
	b := blockadt.Build()
	rev := "unknown (built without version control metadata)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return provenance{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: b.GoVersion, CPU: cpuModel(), Revision: rev, Engine: b.Engine,
	}
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
