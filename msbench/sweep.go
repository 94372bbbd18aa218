package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"microsampler/internal/cluster"
	"microsampler/internal/core"
	"microsampler/internal/msd"
	"microsampler/internal/oracle"
	"microsampler/internal/report"
	"microsampler/internal/telemetry"
)

// sweepSeedPool bounds the sweeps' oracle seeds: batch k of a run with seed
// s uses oracle seed (s+k) mod sweepSeedPool, so a cold run stays cold for
// up to sweepSeedPool-1 batches. Every cell kept below passes its labels at
// every seed of the pool.
const sweepSeedPool = 1024

// warmBatches is how many distinct batches sweep-warm fills at set-up and
// then resubmits in turn.
const warmBatches = 4

// sweepTwins are the matrix twins a batch sweeps: the TAGE-HIST predictor
// grid (12 cells), the CT-DIV divider twin and the SPF-STREAM prefetch twin.
// The fast-bypass twin is left out: each of its cells alone takes longer
// than the rest of the batch.
var sweepTwins = []string{"predictor-flip", "divider-flip", "prefetcher-flip"}

// sweepLeftOut are the cells the chi-squared test flags at some seeds of the
// pool (workload and cell name). A verdict that fails on some seeds only
// would make the failed share depend on the seed.
var sweepLeftOut = map[string]string{
	"CT-DIV divider=fixed": "flagged at 44 of the oracle seeds 0-1023, the first 20, 37 and 58",
}

// pollFloor and pollCeil bound the client's mean poll interval, which is a
// sixteenth of the time the batch has been running: the detection delay
// stays within about 6% of the latency it adds to. Each wait is drawn
// uniformly from half to one and a half times the interval, so the poll
// times do not form a fixed grid that would quantize the latency median.
const (
	pollFloor = time.Millisecond
	pollCeil  = 10 * time.Millisecond
)

// sweepPoint is one cell of the batch with the expectation it is held to.
type sweepPoint struct {
	want oracle.MatrixExpectation
	cell core.Cell
}

type sweep struct {
	cfg    benchConfig
	warm   bool
	points []sweepPoint
	rig    *rig
	hc     *http.Client
	jitter *rand.Rand // poll-time jitter, seeded from the run's seed

	// digests maps each point key seen to its digest (for sweep-warm, the
	// digest filled at set-up); points maps it to the point, for the
	// library recomputation in finish.
	digests map[string][]byte
	pts     map[string]cluster.Point

	// Traced runs only.
	tr        *telemetry.SpanTracer
	jsonl     bytes.Buffer
	recording atomic.Bool
	curOp     atomic.Uint64 // span ID of the operation in flight
	curK      atomic.Int64
	pollBytes atomic.Int64
	base      rigCounters
}

func newSweep(cfg benchConfig, warm bool) *sweep {
	return &sweep{
		cfg: cfg, warm: warm,
		hc:      &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		jitter:  rand.New(rand.NewSource(int64(cfg.seed))),
		digests: map[string][]byte{},
		pts:     map[string]cluster.Point{},
	}
}

func (s *sweep) round() int {
	if s.warm {
		return warmBatches
	}
	return 1
}

func (s *sweep) setup(ctx context.Context) error {
	byName := map[string]oracle.MatrixExpectation{}
	for _, x := range oracle.MatrixTwins() {
		byName[x.Name] = x
	}
	for _, name := range sweepTwins {
		x, ok := byName[name]
		if !ok {
			return fmt.Errorf("no matrix twin %q", name)
		}
		g, err := core.ParseGridSpec(x.Grid)
		if err != nil {
			return err
		}
		for _, c := range g.Cells() {
			if _, out := sweepLeftOut[x.Workload+" "+c.Name]; !out {
				s.points = append(s.points, sweepPoint{want: x, cell: c})
			}
		}
	}
	if s.cfg.traced {
		s.tr = telemetry.NewSpanTracer(&s.jsonl)
	}
	var err error
	s.rig, err = startRig(ctx, filepath.Join(s.cfg.out, "tmp"), s.middleware)
	if err != nil {
		return err
	}
	// The warm-up: sweep-cold runs one batch on a seed the timed phase
	// does not reach; sweep-warm fills the caches with its batches.
	if !s.warm {
		_, err := s.batch(ctx, -1, false)
		return err
	}
	for k := 0; k < warmBatches; k++ {
		if _, err := s.batch(ctx, k, false); err != nil {
			return err
		}
	}
	return nil
}

// request is batch k's request: every point at the batch's oracle seed.
func (s *sweep) request(k int) msd.BatchRequest {
	if s.warm {
		k %= warmBatches
	}
	seed := poolSeed(s.cfg.seed+k, sweepSeedPool)
	req := msd.BatchRequest{Label: "msbench"}
	for _, p := range s.points {
		req.Entries = append(req.Entries, msd.BatchEntry{
			Workload: p.want.Workload, Cell: p.cell.Name,
			Runs: 4, Warmup: 4, SeedOffset: seed * oracle.SeedStride,
		})
	}
	return req
}

func (s *sweep) op(ctx context.Context, k int) (opStats, error) {
	if s.cfg.traced && k == 0 {
		s.base = s.rig.counters()
		s.recording.Store(true)
	}
	return s.batch(ctx, k, true)
}

// batch submits batch k, polls it to completion and checks every point.
// timed batches of sweep-warm must be served from the caches with the
// digests filled at set-up.
func (s *sweep) batch(ctx context.Context, k int, timed bool) (opStats, error) {
	req := s.request(k)
	var span telemetry.ActiveSpan
	if timed {
		span = s.tr.StartDetail("sweep.op", 0, k, fmt.Sprintf("%d points", len(req.Entries)))
		s.curOp.Store(span.ID())
		s.curK.Store(int64(k))
	}
	t0 := time.Now()
	view, err := s.run(ctx, req)
	st := opStats{latency: time.Since(t0), verdicts: len(req.Entries)}
	span.End()
	if err != nil {
		return st, err
	}
	if len(view.Results) != len(req.Entries) {
		return st, fmt.Errorf("batch %s: %d results for %d points", view.ID, len(view.Results), len(req.Entries))
	}
	for i, pv := range view.Results {
		p := s.points[i]
		e := req.Entries[i]
		if pv.Result == nil {
			return st, fmt.Errorf("batch %s point %d: done without a result", view.ID, i)
		}
		r := pv.Result
		if msg := pointFailure(p, r); msg != "" {
			st.failed++
			fmt.Fprintf(os.Stderr, "msbench: failed verdict: %s %s seed offset %d: %s\n",
				e.Workload, e.Cell, e.SeedOffset, msg)
			if !timed {
				return st, fmt.Errorf("set-up batch: %s %s: %s", e.Workload, e.Cell, msg)
			}
			continue
		}
		prev, seen := s.digests[pv.Key]
		switch {
		case s.warm && timed && !r.Cached:
			return st, fmt.Errorf("%s %s: warm point not served from the cache", e.Workload, e.Cell)
		case !s.warm && r.Cached:
			return st, fmt.Errorf("%s %s: cold point served from the cache", e.Workload, e.Cell)
		case seen && !bytes.Equal(prev, r.Digest):
			return st, fmt.Errorf("%s %s: digest differs from the one first served", e.Workload, e.Cell)
		case !seen:
			s.digests[pv.Key] = r.Digest
			s.pts[pv.Key] = cluster.Point{
				Workload: e.Workload, Cell: e.Cell,
				Runs: e.Runs, Warmup: e.Warmup, SeedOffset: e.SeedOffset,
			}
		}
	}
	return st, nil
}

// pointFailure checks one point against its twin's labels: the expected
// verdict and, for a leaky cell, the twin's MustFlag units.
func pointFailure(p sweepPoint, r *cluster.PointResult) string {
	if r.Err != "" {
		return "error: " + r.Err
	}
	want := p.want.ExpectLeaky(p.cell)
	if r.Leaky != want {
		return fmt.Sprintf("verdict leaky=%v, labeled %v (units %v)", r.Leaky, want, r.LeakyUnits)
	}
	if !want {
		return ""
	}
	flagged := map[string]bool{}
	for _, u := range r.LeakyUnits {
		flagged[u] = true
	}
	for _, u := range p.want.MustFlag {
		if !flagged[u.String()] {
			return fmt.Sprintf("unit %s must be flagged", u)
		}
	}
	return ""
}

// batchView mirrors the coordinator's GET /api/v1/batch/{id} response.
type batchView struct {
	ID      string `json:"id"`
	Status  string `json:"status"`
	Results []struct {
		Key    string               `json:"key"`
		Result *cluster.PointResult `json:"result"`
	} `json:"results"`
}

// run is one client operation: POST the batch, then poll it until done.
func (s *sweep) run(ctx context.Context, req msd.BatchRequest) (*batchView, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var sub batchView
	if err := s.call(ctx, http.MethodPost, "/api/v1/batch", body, http.StatusAccepted, &sub); err != nil {
		return nil, err
	}
	start := time.Now()
	for {
		mean := min(max(time.Since(start)/16, pollFloor), pollCeil)
		wait := mean/2 + time.Duration(s.jitter.Int63n(int64(mean)))
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(wait):
		}
		var v batchView
		if err := s.call(ctx, http.MethodGet, "/api/v1/batch/"+sub.ID, nil, http.StatusOK, &v); err != nil {
			return nil, err
		}
		if v.Status == msd.BatchDone {
			return &v, nil
		}
	}
}

func (s *sweep) call(ctx context.Context, method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, s.rig.coord.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// finish recomputes every distinct point in-process with core.Verify and
// requires the service's digest to equal the library's byte for byte, then,
// in a traced run, derives the per-layer metrics.
func (s *sweep) finish(ctx context.Context, phase phaseStats) (map[string]metric, error) {
	var m map[string]metric
	if s.cfg.traced {
		// Read the counters before the recomputation below adds to the
		// heap and the clock.
		m = s.layerMetrics(phase)
		path, err := writeSpans(s.cfg, s.tr, &s.jsonl)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(os.Stderr, "msbench: trace written to", path)
	}
	keys := make(chan string)
	errs := make(chan error, runtime.NumCPU())
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range keys {
				if err := s.libraryCheck(key); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	var failed error
feed:
	for key := range s.digests {
		select {
		case keys <- key:
		case failed = <-errs:
			break feed
		case <-ctx.Done():
			break feed
		}
	}
	close(keys)
	wg.Wait()
	close(errs)
	if failed == nil {
		failed = <-errs
	}
	return m, failed
}

// libraryCheck verifies one point in-process and compares digests.
func (s *sweep) libraryCheck(key string) error {
	p := s.pts[key]
	w, opts, err := p.Resolve()
	if err != nil {
		return err
	}
	rep, err := core.Verify(w, opts)
	if err != nil {
		return fmt.Errorf("library %s %s: %w", p.Workload, p.Cell, err)
	}
	dg, err := report.BuildDigest(rep)
	if err != nil {
		return err
	}
	data, err := dg.JSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(data, s.digests[key]) {
		return fmt.Errorf("%s %s seed offset %d: service digest differs from core.Verify's",
			p.Workload, p.Cell, p.SeedOffset)
	}
	return nil
}

func (s *sweep) close() {
	if s.rig != nil {
		s.rig.close()
	}
	s.hc.CloseIdleConnections()
}

// middleware times every request a daemon serves, in traced runs once the
// timed phase has started. Requests caused by the operation in flight
// become its child spans; heartbeats and other background traffic get
// spans of their own.
func (s *sweep) middleware(daemon string, h http.Handler) http.Handler {
	if !s.cfg.traced {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.recording.Load() {
			h.ServeHTTP(w, r)
			return
		}
		name := routeName(r)
		parent, k := s.curOp.Load(), int(s.curK.Load())
		if name == "cluster.heartbeat" || name == "http.other" {
			parent, k = 0, -1
		}
		span := s.tr.StartDetail(name, parent, k, daemon)
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		span.End()
		if name == "http.poll" {
			s.pollBytes.Add(cw.n)
		}
	})
}

// routeName names the span of one request by the msd route it hits.
func routeName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/api/v1/batch":
		return "http.submit"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/api/v1/batch/"):
		return "http.poll"
	case p == "/api/v1/cluster/execute":
		return "cluster.execute"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/api/v1/cache/"):
		return "cache.fill_get"
	case r.Method == http.MethodPut && strings.HasPrefix(p, "/api/v1/cache/"):
		return "cache.fill_put"
	case p == "/api/v1/cluster/heartbeat" || p == "/api/v1/cluster/register":
		return "cluster.heartbeat"
	}
	return "http.other"
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// layerMetrics derives the sweeps' per-layer metrics from the spans and
// from the daemons' registries and files, as deltas over the timed phase.
func (s *sweep) layerMetrics(phase phaseStats) map[string]metric {
	s.recording.Store(false)
	now := s.rig.counters()
	spans := s.tr.Spans()
	m := layerMetrics()
	ops := float64(phase.ops)
	count := func(name string) float64 { return float64(len(durations(spans, name))) }
	delta := func(f func(c rigCounters) float64) float64 { return f(now) - f(s.base) }

	set(m, "sim.cycles", perVerdict(delta(func(c rigCounters) float64 { return c.cycles }), phase))
	set(m, "sim.instructions", perVerdict(delta(func(c rigCounters) float64 { return c.instructions }), phase))
	set(m, "trace.rows", perVerdict(delta(func(c rigCounters) float64 { return c.rows }), phase))

	set(m, "http.submit_ms", medianOrZero(durations(spans, "http.submit")))
	set(m, "http.poll_ms", medianOrZero(durations(spans, "http.poll")))
	set(m, "http.polls_per_op", count("http.poll")/ops)
	set(m, "http.poll_kb_per_op", float64(s.pollBytes.Load())/1024/ops)

	set(m, "cluster.execute_ms", medianOrZero(durations(spans, "cluster.execute")))
	set(m, "cluster.executes_per_verdict", perVerdict(count("cluster.execute"), phase))
	execs := map[uint64][]telemetry.Span{}
	for _, sp := range spans {
		if sp.Name == "cluster.execute" {
			execs[sp.Parent] = append(execs[sp.Parent], sp)
		}
	}
	var idle time.Duration
	for _, sp := range spans {
		if sp.Name == "sweep.op" {
			idle += sp.Dur - covered(sp, execs[sp.ID])
		}
	}
	set(m, "cluster.idle_ms_per_op", ms(idle)/ops)
	set(m, "cluster.reassigned", delta(func(c rigCounters) float64 { return c.reassigned }))
	set(m, "cluster.hedged", delta(func(c rigCounters) float64 { return c.hedged }))
	set(m, "cluster.degraded", delta(func(c rigCounters) float64 { return c.degraded }))

	hits := delta(func(c rigCounters) float64 { return c.hits })
	misses := delta(func(c rigCounters) float64 { return c.misses })
	if hits+misses > 0 {
		set(m, "cache.hit_ratio", hits/(hits+misses))
	}
	set(m, "cache.fill_get_ms", medianOrZero(durations(spans, "cache.fill_get")))
	set(m, "cache.fill_put_ms", medianOrZero(durations(spans, "cache.fill_put")))
	set(m, "cache.fill_gets", perVerdict(count("cache.fill_get"), phase))
	set(m, "cache.fill_puts", perVerdict(count("cache.fill_put"), phase))

	set(m, "journal.records_per_verdict", perVerdict(delta(func(c rigCounters) float64 { return c.journalLines }), phase))
	set(m, "journal.kb_per_verdict", perVerdict(delta(func(c rigCounters) float64 { return c.journalBytes })/1024, phase))
	set(m, "history.appends_per_verdict", perVerdict(delta(func(c rigCounters) float64 { return c.historyLines }), phase))

	set(m, "msd.retained_batches", s.rig.retainedBatches(s.hc))
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	set(m, "msd.heap_mb_end", float64(mem.HeapAlloc)/(1<<20))
	return m
}

// daemon is one in-process msd server on a loopback port.
type daemon struct {
	name string
	srv  *msd.Server
	reg  *telemetry.Registry
	hs   *http.Server
	url  string
	dir  string
}

// rig is the cluster as the README walkthrough deploys it: a coordinator
// with a journal, a disk cache and history, and two workers with verdict
// caches (and history, where they file fresh verdicts), each worker kept
// registered by a cluster.Agent heartbeat loop. Every store lives in one
// temporary directory.
type rig struct {
	dir     string
	coord   *daemon
	workers []*daemon
	stop    context.CancelFunc
	agents  sync.WaitGroup
	serving sync.WaitGroup
}

// cacheEntries is msd's -cache default.
const cacheEntries = 256

func startRig(ctx context.Context, parent string, wrap func(string, http.Handler) http.Handler) (*rig, error) {
	dir, err := os.MkdirTemp(parent, "sweep-")
	if err != nil {
		return nil, err
	}
	r := &rig{dir: dir}
	agentCtx, stop := context.WithCancel(context.Background())
	r.stop = stop
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()
	coordDir := filepath.Join(dir, "coordinator")
	r.coord, err = r.start("coordinator", msd.Config{
		Coordinator:  true,
		JournalDir:   coordDir,
		CacheEntries: cacheEntries,
		CacheDir:     filepath.Join(coordDir, "cache"),
		HistoryDir:   filepath.Join(coordDir, "history"),
	}, wrap)
	if err != nil {
		return nil, err
	}
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("worker-%d", i)
		w, err := r.start(name, msd.Config{
			CoordinatorURL: r.coord.url,
			CacheEntries:   cacheEntries,
			HistoryDir:     filepath.Join(dir, name, "history"),
		}, wrap)
		if err != nil {
			return nil, err
		}
		r.workers = append(r.workers, w)
		agent := &cluster.Agent{Coordinator: r.coord.url, Self: w.url, ID: name, Interval: time.Second}
		r.agents.Add(1)
		go func() {
			defer r.agents.Done()
			agent.Run(agentCtx)
		}()
	}
	if err := r.awaitWorkers(ctx); err != nil {
		return nil, err
	}
	ok = true
	return r, nil
}

func (r *rig) start(name string, cfg msd.Config, wrap func(string, http.Handler) http.Handler) (*daemon, error) {
	d := &daemon{name: name, reg: telemetry.NewRegistry(), dir: filepath.Join(r.dir, name)}
	cfg.Metrics = d.reg
	srv, err := msd.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		return nil, err
	}
	d.srv = srv
	d.url = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: wrap(name, srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	r.serving.Add(1)
	go func() {
		defer r.serving.Done()
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return d, nil
}

// awaitWorkers waits until the coordinator sees both workers healthy.
func (r *rig) awaitWorkers(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var out struct {
			Workers []cluster.WorkerInfo `json:"workers"`
		}
		if err := getJSON(ctx, http.DefaultClient, r.coord.url+"/api/v1/cluster/workers", &out); err != nil {
			return err
		}
		healthy := 0
		for _, w := range out.Workers {
			if w.Healthy {
				healthy++
			}
		}
		if healthy == len(r.workers) {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	return fmt.Errorf("workers did not register within 30s")
}

func getJSON(ctx context.Context, hc *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// close stops the agents, drains and shuts down every daemon (the
// coordinator first, so its in-flight batches finish while the workers
// still serve) and removes the temporary directory.
func (r *rig) close() {
	r.stop()
	r.agents.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, d := range append([]*daemon{r.coord}, r.workers...) {
		if d == nil {
			continue
		}
		if err := d.srv.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "msbench: drain %s: %v\n", d.name, err)
		}
		if err := d.hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "msbench: shut down %s: %v\n", d.name, err)
		}
	}
	r.serving.Wait()
	http.DefaultClient.CloseIdleConnections()
	if err := os.RemoveAll(r.dir); err != nil {
		fmt.Fprintln(os.Stderr, "msbench:", err)
	}
}

// rigCounters are the cumulative counts the per-layer metrics difference.
type rigCounters struct {
	cycles, instructions, rows   float64
	hits, misses                 float64
	reassigned, hedged, degraded float64
	journalLines, journalBytes   float64
	historyLines                 float64
}

func (r *rig) counters() rigCounters {
	var c rigCounters
	for _, w := range r.workers {
		snap := w.reg.Snapshot()
		c.cycles += float64(snap.Counters["sim_cycles_total"])
		c.instructions += float64(snap.Counters["sim_instructions_total"])
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, "trace_samples_total.") {
				c.rows += float64(v)
			}
		}
		c.hits += float64(snap.Counters["msd_cache_hits_total"])
		c.misses += float64(snap.Counters["msd_cache_misses_total"])
	}
	co := r.coord.reg.Snapshot()
	c.reassigned = float64(co.Counters["msd_shard_reassignments_total"])
	c.hedged = float64(co.Counters["msd_hedged_dispatches_total"])
	c.degraded = float64(co.Counters["msd_batch_points_degraded_total"])
	c.journalLines, c.journalBytes = fileLines(filepath.Join(r.coord.dir, "journal.jsonl"))
	for _, d := range append([]*daemon{r.coord}, r.workers...) {
		n, _ := fileLines(filepath.Join(d.dir, "history", "index.jsonl"))
		c.historyLines += n
	}
	return c
}

// fileLines counts a file's lines and bytes; a missing file counts 0.
func fileLines(path string) (lines, size float64) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0
	}
	return float64(bytes.Count(data, []byte{'\n'})), float64(len(data))
}

// retainedBatches is the length of the coordinator's batch list.
func (r *rig) retainedBatches(hc *http.Client) float64 {
	var out struct {
		Batches []json.RawMessage `json:"batches"`
	}
	if err := getJSON(context.Background(), hc, r.coord.url+"/api/v1/batch", &out); err != nil {
		return 0
	}
	return float64(len(out.Batches))
}
