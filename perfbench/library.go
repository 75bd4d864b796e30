package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"eulerfd"
	"eulerfd/internal/core"
	"eulerfd/internal/dataset"
	"eulerfd/internal/gen"
	"eulerfd/internal/preprocess"
)

// libWorkload is a one-shot discovery workload: each op is CSV bytes →
// eulerfd.ReadCSV → eulerfd.DiscoverObserved → JSON cover.
type libWorkload struct {
	name    string
	gen     func(seed int64) *dataset.Relation
	exact   eulerfd.AlgoID // exact algorithm for the F1 check
	f1Floor float64
	cancels int // cancelled ops measured after the timed window
	// inputs is how many relations one run draws from its seed; ops
	// cycle through them, so a run's median averages over inputs.
	inputs int
}

const (
	tallRows = 40000
	wideRows = 400
	wideCols = 63
)

var tallNarrow = libWorkload{
	name:    "tall-narrow",
	gen:     func(seed int64) *dataset.Relation { return gen.Lineitem("lineitem", tallRows, seed) },
	exact:   eulerfd.AlgoHyFD,
	f1Floor: 0.9,
	inputs:  3,
}

var wideInversion = libWorkload{
	name:    "wide-inversion",
	gen:     plista,
	exact:   eulerfd.AlgoFdep,
	f1Floor: 0.9,
	cancels: 2,
	inputs:  2,
}

func runTallNarrow(cfg config) (*outcome, error)    { return tallNarrow.run(cfg) }
func runWideInversion(cfg config) (*outcome, error) { return wideInversion.run(cfg) }

// input generates the run's relations from the seed and renders them as
// the CSV bytes the ops parse. Relation k is drawn from seed·inputs + k.
func (w libWorkload) input(seed int64) ([][]byte, error) {
	csvs := make([][]byte, w.inputs)
	for k := range csvs {
		var buf bytes.Buffer
		if err := dataset.WriteCSV(&buf, w.gen(seed*int64(w.inputs)+int64(k))); err != nil {
			return nil, err
		}
		csvs[k] = buf.Bytes()
	}
	return csvs, nil
}

// op is the workload's primary operation through the root API. obs may
// be nil.
func (w libWorkload) op(ctx context.Context, csv []byte, obs eulerfd.Observer) ([]byte, error) {
	rel, err := eulerfd.ReadCSV(w.name, bytes.NewReader(csv), eulerfd.DefaultCSVOptions())
	if err != nil {
		return nil, err
	}
	res, err := eulerfd.DiscoverObserved(ctx, rel, eulerfd.DefaultOptions(), obs)
	if err != nil {
		return nil, err
	}
	return res.FDs.MarshalJSON()
}

// checker holds the run's first cover and compares every later cover of
// the same input to it (the determinism contract). The first cover is
// scored against an exact cover once, after the timed window.
type checker struct {
	ref    []byte
	digest [32]byte
	phases string
}

// check reports whether cover (with its progress phase sequence) matches
// the first one seen; the first call sets the reference.
func (c *checker) check(cover []byte, phases string) bool {
	d := sha256.Sum256(cover)
	if c.ref == nil {
		c.ref, c.digest, c.phases = cover, d, phases
		return true
	}
	return d == c.digest && phases == c.phases
}

// f1 scores the reference cover against the exact cover of the relation
// parsed from csv. It runs outside every timing.
func (c *checker) f1(name string, csv []byte, exact eulerfd.AlgoID) (eulerfd.Accuracy, error) {
	rel, err := eulerfd.ReadCSV(name, bytes.NewReader(csv), eulerfd.DefaultCSVOptions())
	if err != nil {
		return eulerfd.Accuracy{}, err
	}
	truth, err := eulerfd.ExactContext(context.Background(), rel, exact)
	if err != nil {
		return eulerfd.Accuracy{}, err
	}
	found := new(eulerfd.Set)
	if err := json.Unmarshal(c.ref, found); err != nil {
		return eulerfd.Accuracy{}, fmt.Errorf("decode cover: %w", err)
	}
	return eulerfd.Evaluate(found, truth), nil
}

// phaseRecorder returns an observer that appends the first letter of
// each progress phase ("s" sampled, "i" inverted) to *seq.
func phaseRecorder(seq *[]byte) eulerfd.Observer {
	return func(p eulerfd.Progress) { *seq = append(*seq, p.Phase[0]) }
}

func (w libWorkload) run(cfg config) (*outcome, error) {
	if cfg.trace {
		return w.runTraced(cfg)
	}
	o := newOutcome()
	csvs, setup, err := medianSetup(func() ([][]byte, error) { return w.input(cfg.seed) }, nil)
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setup
	chks := make([]checker, len(csvs))
	var lat []float64
	var seq []byte
	ctx := context.Background()
	debug.FreeOSMemory() // return set-up garbage before the peak is watched
	peak := pollPeakRSS()
	start := time.Now()
	cpu0 := cpuSeconds()
	for i := 0; i == 0 || time.Since(start).Seconds() < cfg.seconds; i++ {
		k := i % len(csvs)
		seq = seq[:0]
		t0, c0 := time.Now(), cpuSeconds()
		cover, err := w.op(ctx, csvs[k], phaseRecorder(&seq))
		d := time.Since(t0).Seconds()
		ok := err == nil && chks[k].check(cover, string(seq))
		o.attempted++
		if !ok {
			o.failf("%s op %d: err=%v (nil: cover or phases differ from the first op's)", w.name, i, err)
		}
		o.samples = append(o.samples, sample{"discover", t0.Sub(start).Seconds(), d, cpuSeconds() - c0, rssMB(), ok})
		lat = append(lat, d)
	}
	window := time.Since(start).Seconds()
	latencyMetrics(o, lat, window, cpuSeconds()-cpu0)
	o.metrics["peak_rss_mb"] = peak()
	if err := w.measureCancels(o, csvs[0], chks[0].phases); err != nil {
		return nil, err
	}
	return o, w.score(o, chks, csvs)
}

// score runs the exact-cover check on each input's reference cover;
// f1_min is the lowest. Below the floor every op counts as failed.
func (w libWorkload) score(o *outcome, chks []checker, csvs [][]byte) error {
	o.metrics["f1_min"] = 1
	var covers, exacts []int
	for k := range chks {
		if chks[k].ref == nil {
			return fmt.Errorf("no op produced a cover for input %d", k)
		}
		acc, err := chks[k].f1(w.name, csvs[k], w.exact)
		if err != nil {
			return fmt.Errorf("exact cover: %w", err)
		}
		o.metrics["f1_min"] = min(o.metrics["f1_min"], acc.F1)
		covers = append(covers, acc.TruePositives+acc.FalsePositives)
		exacts = append(exacts, acc.TruePositives+acc.FalseNegatives)
	}
	o.extra["cover_size"] = covers
	o.extra["exact_size"] = exacts
	o.extra["fail_ratio"] = float64(o.failed) / float64(o.attempted)
	if f1 := o.metrics["f1_min"]; f1 < w.f1Floor {
		fmt.Printf("perfbench: F1 %.4f is below the floor %.2f\n", f1, w.f1Floor)
		o.failed = o.attempted
		o.extra["fail_ratio"] = 1.0
	}
	return nil
}

// measureCancels runs the workload's cancelled ops after the timed
// window. Each cancels from the observer at the last "sampled" event
// before the first "inverted" one of the reference run: earlier events
// are followed at once by a context check, so only this one makes the
// cancel wait for engine work (the first inversion) to notice it.
func (w libWorkload) measureCancels(o *outcome, csv []byte, phases string) error {
	if w.cancels == 0 {
		return nil
	}
	at := bytes.IndexByte([]byte(phases), 'i') - 1
	if at < 0 {
		return fmt.Errorf("reference run has no sampled event before its first inversion: %q", phases)
	}
	var lat []float64
	for k := 0; k < w.cancels; k++ {
		ctx, cancel := context.WithCancel(context.Background())
		var tc time.Time
		n := 0
		obs := func(p eulerfd.Progress) {
			if n == at {
				tc = time.Now()
				cancel()
			}
			n++
		}
		_, err := w.op(ctx, csv, obs)
		d := time.Since(tc).Seconds()
		cancel()
		o.attempted++
		if !errors.Is(err, context.Canceled) || tc.IsZero() {
			o.failf("%s cancelled op: err=%v", w.name, err)
			continue
		}
		lat = append(lat, d)
		o.samples = append(o.samples, sample{"cancel", 0, d, 0, 0, true})
	}
	o.extra["cancel_p50_s"] = median(lat)
	o.extra["cancel_count"] = len(lat)
	return nil
}

// describeInput records the input's shape in the run summary.
func describeInput(o *outcome, name string, csv []byte) error {
	rel, err := dataset.ReadCSV(name, bytes.NewReader(csv), dataset.DefaultCSVOptions())
	if err != nil {
		return err
	}
	o.extra["rows"], o.extra["cols"], o.extra["csv_bytes"] = rel.NumRows(), rel.NumCols(), len(csv)
	return nil
}

// tracedOp runs one op layer by layer — dataset.ReadCSV,
// preprocess.Encode, core.DiscoverEncodedContext with an observer, JSON
// encoding — and returns its layer metrics plus the cover.
func tracedOp(name string, csv []byte) (map[string]float64, []byte, string, error) {
	m0 := takeMark()
	rel, err := dataset.ReadCSV(name, bytes.NewReader(csv), dataset.DefaultCSVOptions())
	if err != nil {
		return nil, nil, "", err
	}
	m1 := takeMark()
	enc := preprocess.Encode(rel)
	m2 := takeMark()
	var events []mark
	var progress []core.Progress
	obs := func(p core.Progress) {
		events = append(events, takeMark())
		progress = append(progress, p)
	}
	fds, stats, err := core.DiscoverEncodedContext(context.Background(), enc, core.DefaultOptions(), obs)
	if err != nil {
		return nil, nil, "", err
	}
	m3 := takeMark()
	cover, err := fds.MarshalJSON()
	if err != nil {
		return nil, nil, "", err
	}
	m4 := takeMark()

	var sampleSpan, invertSpan span
	prev := m2
	var phases []byte
	var lastInverted mark
	for i, ev := range events {
		s := between(prev, ev)
		phases = append(phases, progress[i].Phase[0])
		if progress[i].Phase == "inverted" {
			invertSpan.add(s)
			lastInverted = ev
		} else {
			sampleSpan.add(s)
		}
		prev = ev
	}
	read, encode := between(m0, m1), between(m1, m2)
	output, api := between(prev, m3), between(m3, m4)
	total := m4.end.Sub(m0.start).Seconds()
	layers := read.wall + encode.wall + sampleSpan.wall + invertSpan.wall + output.wall + api.wall
	met := map[string]float64{
		"dataset.read_s":             read.wall,
		"preprocess.encode_s":        encode.wall,
		"preprocess.encode_alloc_mb": encode.allocMB,
		"core.sample_s":              sampleSpan.wall,
		"core.sample_alloc_mb":       sampleSpan.allocMB,
		"core.sample_parallelism":    sampleSpan.parallelism(),
		"core.pairs_compared":        float64(stats.PairsCompared),
		"core.agree_sets":            float64(stats.AgreeSets),
		"core.cycles":                float64(stats.Inversions),
		"cover.invert_s":             invertSpan.wall,
		"cover.invert_alloc_mb":      invertSpan.allocMB,
		"cover.invert_parallelism":   invertSpan.parallelism(),
		"cover.heap_inuse_mb":        float64(lastInverted.heapInuse) / (1 << 20),
		"cover.ncover_size":          float64(stats.NcoverSize),
		"cover.pcover_size":          float64(stats.PcoverSize),
		"cover.output_s":             output.wall,
		"cover.output_alloc_mb":      output.allocMB,
		"api.encode_s":               api.wall,
		"api.output_bytes":           float64(len(cover)),
		"traced.unattributed_s":      total - layers,
		"traced.total_s":             total,
	}
	return met, cover, string(phases), nil
}

// runTraced alternates untraced ops (the root API, as in the timed run)
// with traced ops for the window; each layer metric is the median over
// traced ops, and traced.overhead_s is the difference of the two medians.
func (w libWorkload) runTraced(cfg config) (*outcome, error) {
	o := newOutcome()
	csvs, err := w.input(cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := describeInput(o, w.name, csvs[0]); err != nil {
		return nil, err
	}
	chks := make([]checker, len(csvs))
	var plain []float64
	traced := map[string][]float64{}
	var seq []byte
	start := time.Now()
	for i := 0; i < 2*len(csvs) || time.Since(start).Seconds() < cfg.seconds; i++ {
		k := i / 2 % len(csvs)
		t0 := time.Now()
		var cover []byte
		var phases string
		if i%2 == 0 {
			seq = seq[:0]
			cover, err = w.op(context.Background(), csvs[k], phaseRecorder(&seq))
			phases = string(seq)
			plain = append(plain, time.Since(t0).Seconds())
		} else {
			var met map[string]float64
			met, cover, phases, err = tracedOp(w.name, csvs[k])
			for name, v := range met {
				traced[name] = append(traced[name], v)
			}
		}
		o.attempted++
		ok := err == nil && chks[k].check(cover, phases)
		if !ok {
			o.failf("%s traced-run op %d: err=%v", w.name, i, err)
		}
		o.samples = append(o.samples, sample{[]string{"plain", "traced"}[i%2], t0.Sub(start).Seconds(), time.Since(t0).Seconds(), 0, 0, ok})
	}
	for name, vs := range traced {
		o.metrics[name] = median(vs)
	}
	total := o.metrics["traced.total_s"]
	delete(o.metrics, "traced.total_s")
	o.metrics["traced.overhead_s"] = total - median(plain)
	shareOfOp(o, total)
	for _, name := range []string{"core.apply_s", "core.retired", "core.patched_rhs", "afd.rank_s", "serve.ack_s", "serve.done_wait_s", "serve.fds_bytes"} {
		o.metrics[name] = 0 // layers a one-shot discovery never enters
	}
	return o, w.score(o, chks, csvs)
}

// discoveryLayers are the layer spans of one traced discovery op, in
// call order.
var discoveryLayers = []string{"dataset.read_s", "preprocess.encode_s", "core.sample_s", "cover.invert_s", "cover.output_s", "api.encode_s", "traced.unattributed_s"}

// shareOfOp records, in the summary, each discovery layer's median as a
// share of the median traced op — the figure the regime checks read.
func shareOfOp(o *outcome, total float64) {
	shares := map[string]float64{}
	for _, k := range discoveryLayers {
		shares[k] = o.metrics[k] / total
	}
	o.extra["layer_share"] = shares
}
