// Command perfbench is the repository's end-to-end benchmark. It drives
// the EulerFD engine through its public entry points on three seeded
// workloads and prints one JSON result line:
//
//	perfbench --workload tall-narrow --seed 1 --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics with nothing but the
// benchmark's own clock around each operation; --trace 1 is a separate
// run that calls each layer's public function in turn and reports the
// per-layer metrics. Two more modes support the benchmark itself:
//
//	perfbench self-check [-runs 10] [-sets 2] [-workloads a,b]
//	perfbench regimes [-seeds 1,2,3] [-seconds 5] [-write f | -check f]
//
// See README.md in this directory for the metric table and the reasons
// behind each workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are
// the ones BENCHMARK.json declares; self-check verifies they agree.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"op_p50_s", "s"},
	{"op_tail_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_per_op_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"f1_min", "ratio"},
}

var perLayer = []metricDef{
	{"dataset.read_s", "s"},
	{"preprocess.encode_s", "s"},
	{"preprocess.encode_alloc_mb", "MB"},
	{"core.sample_s", "s"},
	{"core.sample_alloc_mb", "MB"},
	{"core.sample_parallelism", "cpu/wall"},
	{"core.pairs_compared", "count"},
	{"core.agree_sets", "count"},
	{"core.cycles", "count"},
	{"cover.invert_s", "s"},
	{"cover.invert_alloc_mb", "MB"},
	{"cover.invert_parallelism", "cpu/wall"},
	{"cover.heap_inuse_mb", "MB"},
	{"cover.ncover_size", "count"},
	{"cover.pcover_size", "count"},
	{"cover.output_s", "s"},
	{"cover.output_alloc_mb", "MB"},
	{"api.encode_s", "s"},
	{"api.output_bytes", "bytes"},
	{"core.apply_s", "s"},
	{"core.retired", "count"},
	{"core.patched_rhs", "count"},
	{"afd.rank_s", "s"},
	{"serve.ack_s", "s"},
	{"serve.done_wait_s", "s"},
	{"serve.fds_bytes", "bytes"},
	{"traced.unattributed_s", "s"},
	{"traced.overhead_s", "s"},
}

// sample is one timed operation of a run, written to the run's sample
// file so machine-speed phases can be read off later.
type sample struct {
	Kind     string  `json:"kind"`
	StartS   float64 `json:"start_s"` // offset from the start of the timed window
	LatencyS float64 `json:"latency_s"`
	CPUS     float64 `json:"cpu_s"`            // process CPU consumed during the op
	RSSMB    float64 `json:"rss_mb,omitempty"` // resident set right after the op
	OK       bool    `json:"ok"`
}

// outcome is what one workload run hands back to main.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	extra             map[string]any // workload-specific figures for the summary file
	samples           []sample
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, extra: map[string]any{}}
}

// failf records a failed op and says why on stderr.
func (o *outcome) failf(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: op failed: "+format+"\n", args...)
}

type config struct {
	seed    int64
	seconds float64
	trace   bool
}

// workload is one entry of BENCHMARK.json's workloads, which also says
// why each exists.
type workload struct {
	name string
	run  func(cfg config) (*outcome, error)
}

var workloads = []workload{
	{"tall-narrow", runTallNarrow},
	{"wide-inversion", runWideInversion},
	{"serve-mutate", runServeMutate},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "self-check":
			os.Exit(selfCheck(os.Args[2:]))
		case "regimes":
			os.Exit(regimes(os.Args[2:]))
		}
	}
	var cfg config
	var name string
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&name, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 for the per-layer traced run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = trace == 1
	w, ok := lookup(name)
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (tall-narrow|wide-inversion|serve-mutate), --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	if err := runOne(w, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// outDir is where run summaries go: $PERFBENCH_OUT (run.sh points it
// into the build directory), else .bench_build/perfbench.
func outDir() string {
	if d := os.Getenv("PERFBENCH_OUT"); d != "" {
		return d
	}
	return filepath.Join(".bench_build", "perfbench")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runOne(w workload, cfg config) error {
	o, err := w.run(cfg)
	if err != nil {
		return err
	}
	if o.attempted < 1 {
		return errors.New("no op was attempted")
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not produce metric %s", w.name, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if err := writeSummary(w, cfg, o, res); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeSummary stores the run's result, its workload-specific figures,
// the environment, and every raw sample beside the other runs.
func writeSummary(w workload, cfg config, o *outcome, res result) error {
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	doc := map[string]any{
		"workload": w.name,
		"seed":     cfg.seed,
		"seconds":  cfg.seconds,
		"trace":    trace,
		"env": map[string]any{
			"num_cpu":    runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(),
			"workers":    runtime.NumCPU(), // Options.Workers = 0 means NumCPU
		},
		"result":  res,
		"extra":   o.extra,
		"samples": o.samples,
		"written": time.Now().UTC().Format(time.RFC3339),
	}
	blob, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", w.name, cfg.seed, trace)
	return os.WriteFile(filepath.Join(outDir(), name), blob, 0o644)
}

// latencyMetrics fills the op_* and ops_per_s metrics from the primary
// op samples of a timed window, and records the tail percentile used.
func latencyMetrics(o *outcome, lat []float64, window, cpu float64) {
	p, pct := tail(lat)
	o.metrics["op_p50_s"] = median(lat)
	o.metrics["op_tail_s"] = p
	o.metrics["ops_per_s"] = float64(len(lat)) / window
	o.metrics["cpu_per_op_s"] = cpu / float64(len(lat))
	o.extra["op_tail_percentile"] = pct
	o.extra["op_count"] = len(lat)
	o.extra["window_s"] = window
}

// Set-up is short and noisy, so one run of it says little: medianSetup
// repeats it at least minSetups times, and up to maxSetups times while
// the repeats take less than setupBudget in total.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = time.Second
)

// medianSetup runs setup repeatedly, keeps the last product, and returns
// the median duration. Earlier products go to discard (which may be nil)
// untimed.
func medianSetup[T any](setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var ds []float64
	var spent time.Duration
	for i := 0; i < minSetups || (i < maxSetups && spent < setupBudget); i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		d := time.Since(t0)
		spent += d
		ds = append(ds, d.Seconds())
		last = v
	}
	return last, median(ds), nil
}
