package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"eulerfd"
	"eulerfd/internal/afd"
	"eulerfd/internal/core"
	"eulerfd/internal/dataset"
	"eulerfd/internal/gen"
	"eulerfd/internal/serve"
)

const (
	weatherRows  = 8000
	poolRows     = 16000 // appended and update rows are drawn from here, cyclically
	batchAppends = 60    // equal to the deletes, so the row count stays constant
	batchUpdates = 20
	maxBatches   = 600
	afdK         = 10
	// Versions 1, 21 and 41 are scored against an exact cover of their
	// snapshot. A run always reaches them, so every run of a seed scores
	// the same covers.
	checkpointEvery = 20
	maxCheckpoints  = 3
	// The floor only rejects a cover that is not a plausible cover;
	// f1_min itself is the tracked accuracy.
	serveF1Floor = 0.8
)

// serveInput is everything the serve-mutate workload sends, generated
// from the seed before the first timed op: the bootstrap relation as
// CSV, and the whole batch sequence as JSON bodies.
type serveInput struct {
	attrs   []string
	boot    [][]string
	bootCSV []byte
	batches []core.MutationBatch
	bodies  [][]byte
}

// genServeInput builds the bootstrap relation and maxBatches mutation
// batches. Batch i deletes the batchAppends oldest alive rows, rewrites
// batchUpdates random alive rows, and appends batchAppends rows, so every
// batch sees the same row count and op n does the same work however fast
// the program runs. Row ids follow the service's rule: assigned in append
// order from 0.
func genServeInput(seed int64) (*serveInput, error) {
	rel := gen.Weather("weather", weatherRows+poolRows, seed)
	in := &serveInput{attrs: rel.Attrs, boot: rel.Rows[:weatherRows]}
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, &dataset.Relation{Name: "weather", Attrs: rel.Attrs, Rows: in.boot}); err != nil {
		return nil, err
	}
	in.bootCSV = buf.Bytes()
	pool := rel.Rows[weatherRows:]
	r := rand.New(rand.NewSource(seed))
	next, oldest := int64(weatherRows), int64(0)
	k := 0
	take := func(n int) [][]string {
		rows := make([][]string, n)
		for i := range rows {
			rows[i] = pool[k%len(pool)]
			k++
		}
		return rows
	}
	for i := 0; i < maxBatches; i++ {
		del := make([]int64, batchAppends)
		for j := range del {
			del[j] = oldest + int64(j)
		}
		oldest += batchAppends
		picked := map[int64]bool{}
		upd := make([]int64, 0, batchUpdates)
		for len(upd) < batchUpdates {
			id := oldest + r.Int63n(next-oldest)
			if !picked[id] {
				picked[id] = true
				upd = append(upd, id)
			}
		}
		b := core.MutationBatch{Mutations: []core.Mutation{
			core.DeleteOp(del...),
			core.UpdateOp(upd, take(batchUpdates)),
			core.AppendOp(take(batchAppends)),
		}}
		next += batchAppends
		body, err := json.Marshal(b)
		if err != nil {
			return nil, err
		}
		in.batches = append(in.batches, b)
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

// snapshotAt replays the first n batches on the bootstrap rows and
// returns the alive rows in id order: the relation the service holds at
// version n+1.
func (in *serveInput) snapshotAt(n int) (*dataset.Relation, error) {
	alive := make(map[int64][]string, len(in.boot))
	for i, row := range in.boot {
		alive[int64(i)] = row
	}
	next := int64(len(in.boot))
	for _, b := range in.batches[:n] {
		for _, m := range b.Mutations {
			switch m.Op {
			case core.OpDelete:
				for _, id := range m.IDs {
					delete(alive, id)
				}
			case core.OpUpdate:
				for j, id := range m.IDs {
					alive[id] = m.Rows[j]
				}
			case core.OpAppend:
				for _, row := range m.Rows {
					alive[next] = row
					next++
				}
			}
		}
	}
	ids := make([]int64, 0, len(alive))
	for id := range alive {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	rows := make([][]string, len(ids))
	for i, id := range ids {
		rows[i] = alive[id]
	}
	return dataset.New("weather", in.attrs, rows)
}

// served is one in-process fdserve instance on a loopback listener with
// one bootstrapped session.
type served struct {
	srv     *serve.Server
	hs      *http.Server
	stopped chan struct{}
	base    string
	session string
	version int64
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

func closeClient(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// startServed starts a server with default engine options (Workers =
// NumCPU) and bootstraps the session from the input's CSV.
func startServed(in *serveInput) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{
		srv:     serve.New(serve.Config{Euler: core.DefaultOptions()}),
		stopped: make(chan struct{}),
		base:    "http://" + ln.Addr().String(),
	}
	s.hs = &http.Server{Handler: s.srv}
	go func() {
		defer close(s.stopped)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	c := newClient()
	defer closeClient(c)
	var ack submitAck
	if _, err := doRaw(c, "POST", s.base+"/v1/sessions?name=weather", "text/csv", in.bootCSV, http.StatusAccepted, &ack); err != nil {
		s.close()
		return nil, fmt.Errorf("submit: %w", err)
	}
	s.session = ack.Session
	d, err := waitDone(c, s.base, s.session, ack.Job)
	if err == nil && d.Code != http.StatusOK {
		err = fmt.Errorf("bootstrap done with code %d: %s", d.Code, d.Error)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	s.version = d.Version
	return s, nil
}

// close drains the service and waits for its HTTP server to stop.
func (s *served) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Drain(ctx)   // in-flight jobs finish; a timeout only shortens the wait
	_ = s.hs.Shutdown(ctx) // likewise
	<-s.stopped
}

type submitAck struct {
	Session string `json:"session"`
	Job     string `json:"job"`
}

type doneEvent struct {
	Job     string `json:"job"`
	Code    int    `json:"code"`
	Error   string `json:"error"`
	Version int64  `json:"version"`
}

// doRaw sends one request, requires status want, decodes the body into
// out (when non-nil), and returns the body.
func doRaw(c *http.Client, method, url, ctype string, body []byte, want int, out any) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return blob, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(blob))
	}
	if out != nil {
		if err := json.Unmarshal(blob, out); err != nil {
			return blob, fmt.Errorf("%s %s: decode: %w", method, url, err)
		}
	}
	return blob, nil
}

// waitDone follows the session's SSE stream until the done event of job.
// The stream replays the session history first, so a job that finished
// before the subscription is still found.
func waitDone(c *http.Client, base, session, job string) (doneEvent, error) {
	resp, err := c.Get(base + "/v1/sessions/" + session + "/events")
	if err != nil {
		return doneEvent{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doneEvent{}, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			var d doneEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &d); err != nil {
				return doneEvent{}, err
			}
			if d.Job == job {
				_, _ = io.Copy(io.Discard, resp.Body) // the stream ends after done; drain for reuse
				return d, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return doneEvent{}, err
	}
	return doneEvent{}, fmt.Errorf("events stream ended without done for %s", job)
}

// mutate posts one batch and waits for its done event, checking that it
// committed as the next version. acked (which may be nil) runs right
// after the 202 ack. It returns the instants of the ack and the done
// event.
func (s *served) mutate(c *http.Client, body []byte, acked func()) (ackAt, doneAt time.Time, err error) {
	var ack submitAck
	if _, err = doRaw(c, "POST", s.base+"/v1/sessions/"+s.session+"/mutations", "application/json", body, http.StatusAccepted, &ack); err != nil {
		return ackAt, doneAt, err
	}
	ackAt = time.Now()
	if acked != nil {
		acked()
	}
	d, err := waitDone(c, s.base, s.session, ack.Job)
	doneAt = time.Now()
	if err != nil {
		return ackAt, doneAt, err
	}
	if d.Code != http.StatusOK || d.Version != s.version+1 {
		return ackAt, doneAt, fmt.Errorf("batch done with code %d at version %d (want 200 at %d): %s", d.Code, d.Version, s.version+1, d.Error)
	}
	s.version = d.Version
	return ackAt, doneAt, nil
}

// fdsDoc is the part of GET /fds the benchmark checks.
type fdsDoc struct {
	Version int64           `json:"version"`
	FDs     json.RawMessage `json:"fds"`
}

// reader is the second client connection: it reads /fds at a version
// floor whenever asked and checks every answer. A version's cover must
// read the same every time, and checkpoint covers are kept for the exact
// check after the window.
type reader struct {
	s       *served
	c       *http.Client
	reqs    chan int64 // min_version of the next read
	done    chan error
	lat     float64 // latency of the last read
	seen    map[int64][32]byte
	kept    map[int64][]byte // checkpoint version → cover JSON
	fdsSize int
}

func newReader(s *served) *reader {
	return &reader{
		s: s, c: newClient(),
		reqs: make(chan int64), done: make(chan error),
		seen: map[int64][32]byte{}, kept: map[int64][]byte{},
	}
}

// loop serves read requests until reqs is closed.
func (r *reader) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	defer closeClient(r.c)
	for minVersion := range r.reqs {
		t0 := time.Now()
		err := r.read(minVersion)
		r.lat = time.Since(t0).Seconds()
		r.done <- err
	}
}

func isCheckpoint(v int64) bool { return (v-1)%checkpointEvery == 0 }

func (r *reader) read(minVersion int64) error {
	var doc fdsDoc
	url := fmt.Sprintf("%s/v1/sessions/%s/fds?min_version=%d", r.s.base, r.s.session, minVersion)
	blob, err := doRaw(r.c, "GET", url, "", nil, http.StatusOK, &doc)
	if err != nil {
		return err
	}
	r.fdsSize = len(blob)
	if err := sameAsBefore(r.seen, doc.Version, doc.FDs); err != nil {
		return err
	}
	if isCheckpoint(doc.Version) && r.kept[doc.Version] == nil && len(r.kept) < maxCheckpoints {
		r.kept[doc.Version] = append([]byte(nil), doc.FDs...)
	}
	if doc.Version < minVersion {
		return fmt.Errorf("answered version %d below min_version %d", doc.Version, minVersion)
	}
	return nil
}

// sameAsBefore enforces that one version always reads the same bytes.
func sameAsBefore(seen map[int64][32]byte, version int64, blob []byte) error {
	d := sha256.Sum256(blob)
	if prev, ok := seen[version]; ok && prev != d {
		return fmt.Errorf("version %d read differently than before", version)
	}
	seen[version] = d
	return nil
}

func runServeMutate(cfg config) (*outcome, error) {
	if cfg.trace {
		return runServeTraced(cfg)
	}
	o := newOutcome()
	type setupProduct struct {
		in *serveInput
		s  *served
	}
	p, setup, err := medianSetup(func() (setupProduct, error) {
		in, err := genServeInput(cfg.seed)
		if err != nil {
			return setupProduct{}, err
		}
		s, err := startServed(in)
		return setupProduct{in, s}, err
	}, func(p setupProduct) { p.s.close() })
	if err != nil {
		return nil, err
	}
	in, s := p.in, p.s
	defer s.close()
	o.metrics["setup_s"] = setup

	rd := newReader(s)
	var wg sync.WaitGroup
	wg.Add(1)
	go rd.loop(&wg)
	w := newClient()
	defer closeClient(w)

	var lat, reads []float64
	debug.FreeOSMemory() // return set-up garbage before the peak is watched
	peak := pollPeakRSS()
	start := time.Now()
	cpu0 := cpuSeconds()
	// The loop runs at least until the last checkpoint version is read.
	minBatches := (maxCheckpoints - 1) * checkpointEvery
	for i := 0; i < len(in.bodies) && (i < minBatches || time.Since(start).Seconds() < cfg.seconds); i++ {
		t0, c0 := time.Now(), cpuSeconds()
		before := s.version
		// One read runs beside the batch at the old version; a second,
		// read-your-writes, follows the commit.
		readBeside := false
		_, _, err := s.mutate(w, in.bodies[i], func() {
			readBeside = true
			rd.reqs <- before
		})
		d, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
		if readBeside {
			if rerr := <-rd.done; err == nil {
				err = rerr
			}
			reads = append(reads, rd.lat)
		}
		if err == nil {
			rd.reqs <- s.version
			err = <-rd.done
			reads = append(reads, rd.lat)
		}
		o.attempted++
		if err != nil {
			o.failf("serve-mutate batch %d: %v", i, err)
		}
		o.samples = append(o.samples, sample{"mutate", t0.Sub(start).Seconds(), d, cpu, rssMB(), err == nil})
		lat = append(lat, d)
		if err != nil && s.version == before {
			break // the batch sequence cannot continue past an uncommitted batch
		}
	}
	window := time.Since(start).Seconds()
	close(rd.reqs)
	wg.Wait()
	latencyMetrics(o, lat, window, cpuSeconds()-cpu0)
	o.metrics["peak_rss_mb"] = peak()
	rp, rpct := tail(reads)
	o.extra["read_p50_s"] = median(reads)
	o.extra["read_tail_s"] = rp
	o.extra["read_tail_percentile"] = rpct
	o.extra["read_count"] = len(reads)
	o.extra["fds_bytes"] = rd.fdsSize
	return o, scoreCheckpoints(o, in, rd.kept)
}

// scoreCheckpoints compares each kept cover with an exact cover (HyFD) of
// the same snapshot, outside every timing.
func scoreCheckpoints(o *outcome, in *serveInput, kept map[int64][]byte) error {
	if len(kept) != maxCheckpoints {
		return fmt.Errorf("read %d checkpoint covers, want %d", len(kept), maxCheckpoints)
	}
	f1s := map[string]eulerfd.Accuracy{}
	minF1 := 1.0
	for v, blob := range kept {
		rel, err := in.snapshotAt(int(v - 1))
		if err != nil {
			return err
		}
		truth, err := eulerfd.Exact(rel)
		if err != nil {
			return fmt.Errorf("exact cover at version %d: %w", v, err)
		}
		found := new(eulerfd.Set)
		if err := json.Unmarshal(blob, found); err != nil {
			return fmt.Errorf("decode cover at version %d: %w", v, err)
		}
		acc := eulerfd.Evaluate(found, truth)
		f1s[fmt.Sprint(v)] = acc
		minF1 = min(minF1, acc.F1)
	}
	o.metrics["f1_min"] = minF1
	o.extra["checkpoint_f1"] = f1s
	o.extra["fail_ratio"] = float64(o.failed) / float64(o.attempted)
	if minF1 < serveF1Floor {
		fmt.Printf("perfbench: checkpoint F1 %.4f is below the floor %.2f\n", minF1, serveF1Floor)
		o.failed = o.attempted
		o.extra["fail_ratio"] = 1.0
	}
	return nil
}

// runServeTraced is the per-layer run of serve-mutate. It traces the
// bootstrap relation's discovery layer by layer, then walks the batch
// sequence alternating plain and traced batches. Every batch is replayed
// on a library twin (core.Incremental.ApplyContext). A traced batch
// splits POST → done into the 202 ack and the wait for done, times the
// twin's apply, and reads /fds, whose cover must equal the twin's. After
// the window, afd.Scorer.Rank is timed once on the twin's snapshot.
func runServeTraced(cfg config) (*outcome, error) {
	o := newOutcome()
	in, err := genServeInput(cfg.seed)
	if err != nil {
		return nil, err
	}
	s, err := startServed(in)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if err := describeInput(o, "weather", in.bootCSV); err != nil {
		return nil, err
	}
	opt := core.DefaultOptions()
	twin, err := core.NewIncremental("weather", in.attrs, opt)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if _, err := twin.AppendContext(ctx, in.boot, nil); err != nil {
		return nil, err
	}
	c := newClient()
	defer closeClient(c)

	start := time.Now()
	layers := map[string][]float64{}
	var chk checker
	var discTotal []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		met, cover, phases, err := tracedOp("weather", in.bootCSV)
		ok := err == nil && chk.check(cover, phases)
		o.attempted++
		if !ok {
			o.failf("serve-mutate traced discovery %d: err=%v", i, err)
			continue
		}
		for k, v := range met {
			layers[k] = append(layers[k], v)
		}
		discTotal = append(discTotal, met["traced.total_s"])
		o.samples = append(o.samples, sample{"traced-discover", t0.Sub(start).Seconds(), met["traced.total_s"], 0, 0, true})
	}
	for k, vs := range layers {
		o.metrics[k] = median(vs)
	}
	shareOfOp(o, median(discTotal))
	delete(o.metrics, "traced.total_s")

	var plain, traced, unattributed []float64
	serveLayers := map[string][]float64{}
	for i := 0; i < len(in.bodies) && (i < 2 || time.Since(start).Seconds() < cfg.seconds); i++ {
		t0 := time.Now()
		ackAt, doneAt, err := s.mutate(c, in.bodies[i], nil)
		op := doneAt.Sub(t0).Seconds()
		var apply float64
		if err == nil {
			apply, err = twinApply(ctx, twin, in.batches[i], i%2 == 1, serveLayers)
		}
		if err == nil && i%2 == 1 {
			traced = append(traced, op)
			serveLayers["serve.ack_s"] = append(serveLayers["serve.ack_s"], ackAt.Sub(t0).Seconds())
			serveLayers["serve.done_wait_s"] = append(serveLayers["serve.done_wait_s"], doneAt.Sub(ackAt).Seconds())
			// The engine's share of the batch is what the twin's apply
			// took; the rest is HTTP, session and SSE work.
			unattributed = append(unattributed, op-apply)
			err = compareWithTwin(c, s, twin, serveLayers)
		} else if err == nil {
			plain = append(plain, op)
		}
		o.attempted++
		if err != nil {
			o.failf("serve-mutate traced batch %d: %v", i, err)
			break
		}
		o.samples = append(o.samples, sample{[]string{"plain", "traced"}[i%2], t0.Sub(start).Seconds(), op, 0, 0, true})
	}
	rank, err := twinRank(ctx, twin)
	if err != nil {
		return nil, err
	}
	serveLayers["afd.rank_s"] = []float64{rank}
	for k, vs := range serveLayers {
		o.metrics[k] = median(vs)
	}
	o.metrics["traced.unattributed_s"] = median(unattributed)
	o.metrics["traced.overhead_s"] = median(traced) - median(plain)
	return o, nil
}

// twinApply applies batch to the library twin, recording the core.*
// layer metrics when record is set. It returns how long the apply took.
func twinApply(ctx context.Context, twin *core.Incremental, batch core.MutationBatch, record bool, layers map[string][]float64) (float64, error) {
	t0 := time.Now()
	st, err := twin.ApplyContext(ctx, batch, nil)
	apply := time.Since(t0).Seconds()
	if err != nil {
		return 0, fmt.Errorf("twin apply: %w", err)
	}
	if record {
		layers["core.apply_s"] = append(layers["core.apply_s"], apply)
		layers["core.retired"] = append(layers["core.retired"], float64(st.Retired))
		layers["core.patched_rhs"] = append(layers["core.patched_rhs"], float64(st.PatchedRHS))
	}
	return apply, nil
}

// twinRank is what the first GET /afds?measure=g3&k=afdK on the session
// costs: build a scorer on the snapshot and rank the whole cover. It runs
// once per traced run, after the window, because one call takes many
// seconds on this relation.
func twinRank(ctx context.Context, twin *core.Incremental) (float64, error) {
	t0 := time.Now()
	ranked, err := afd.NewScorer(twin.Snapshot(), 0).Rank(ctx, afd.G3, twin.FDs().Slice(), afdK)
	if err != nil {
		return 0, fmt.Errorf("twin rank: %w", err)
	}
	if len(ranked) != afdK {
		return 0, fmt.Errorf("twin rank returned %d, want %d", len(ranked), afdK)
	}
	return time.Since(t0).Seconds(), nil
}

// compareWithTwin reads /fds and requires the served cover to equal the
// twin's, batch for batch.
func compareWithTwin(c *http.Client, s *served, twin *core.Incremental, layers map[string][]float64) error {
	var doc fdsDoc
	blob, err := doRaw(c, "GET", fmt.Sprintf("%s/v1/sessions/%s/fds?min_version=%d", s.base, s.session, s.version), "", nil, http.StatusOK, &doc)
	if err != nil {
		return err
	}
	layers["serve.fds_bytes"] = append(layers["serve.fds_bytes"], float64(len(blob)))
	want, err := twin.FDs().MarshalJSON()
	if err != nil {
		return err
	}
	var got bytes.Buffer // the service indents its documents
	if err := json.Compact(&got, doc.FDs); err != nil {
		return err
	}
	if doc.Version != s.version || !bytes.Equal(got.Bytes(), want) {
		return fmt.Errorf("served cover at version %d differs from the library twin's", doc.Version)
	}
	return nil
}
