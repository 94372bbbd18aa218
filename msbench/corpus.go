package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"microsampler/internal/asm"
	"microsampler/internal/core"
	"microsampler/internal/features"
	"microsampler/internal/isa"
	"microsampler/internal/oracle"
	"microsampler/internal/report"
	"microsampler/internal/sim"
	"microsampler/internal/snapshot"
	"microsampler/internal/stats"
	"microsampler/internal/telemetry"
	"microsampler/internal/trace"
)

// corpusSeedPool bounds the corpus' oracle seeds: round r of a run with seed
// s verifies every entry at oracle seed (s+r) mod corpusSeedPool. Every
// entry kept below passes its labels at every seed of the pool, so the share
// of failed verdicts is the same in every run.
const corpusSeedPool = 64

// corpusLeftOut are the safe entries the chi-squared test flags at some
// seeds of the pool. A verdict that fails on some seeds only would make the
// failed share depend on the seed, so they are left out of the rounds; the
// knownFault operation below keeps the fault itself in view.
var corpusLeftOut = map[string]string{
	"ct-cond-swap": "flagged at oracle seeds 11, 14 and 55",
	"ct-div-fixed": "flagged at oracle seeds 20, 37, 58 and 60",
}

// knownFault is one chi-squared false positive on safe code, run at a fixed
// oracle seed as the last operation of every round. It fails every time
// until the statistics stop flagging noise, which moves the failed count.
var knownFault = struct {
	entry string
	seed  int
}{"ct-cond-swap", 11}

// heatmapWindows matches the CLI's -heatmap-windows default.
const heatmapWindows = 16

// corpusMaxCycles is core.Verify's default per-run cycle bound.
const corpusMaxCycles = 20_000_000

type corpus struct {
	cfg     benchConfig
	entries []oracle.Entry // the kept entries, then knownFault's entry
	fault   oracle.Entry

	// Traced runs only: the span tracer (buffering its JSONL in memory)
	// and the work counts of the layers.
	tr    *telemetry.SpanTracer
	jsonl bytes.Buffer
	count struct {
		cycles, instructions, mallocs, rows uint64
		unique, cells, artifactBytes        int
	}
}

func newCorpus(cfg benchConfig) *corpus {
	return &corpus{cfg: cfg}
}

func (c *corpus) setup(context.Context) error {
	for _, e := range oracle.Corpus() {
		e = entryDefaults(e)
		if e.Name == knownFault.entry {
			c.fault = e
		}
		if _, out := corpusLeftOut[e.Name]; !out {
			c.entries = append(c.entries, e)
		}
	}
	if c.fault.Name == "" {
		return fmt.Errorf("corpus has no entry %q", knownFault.entry)
	}
	// The warm-up operation: the first operation of the timed phase, run
	// untraced and discarded.
	e, seed := c.opAt(0)
	_, _, _, err := verifyAndRender(nil, 0, 0, e, seed)
	if c.cfg.traced {
		c.tr = telemetry.NewSpanTracer(&c.jsonl)
	}
	return err
}

// entryDefaults applies the oracle's defaults of 4 runs and 4 warm-up
// iterations.
func entryDefaults(e oracle.Entry) oracle.Entry {
	if e.Runs == 0 {
		e.Runs = 4
	}
	if e.Warmup == 0 {
		e.Warmup = 4
	}
	return e
}

// round is the kept entries plus the known-fault operation.
func (c *corpus) round() int { return len(c.entries) + 1 }

// opAt returns operation k's entry and oracle seed.
func (c *corpus) opAt(k int) (oracle.Entry, int) {
	i := k % c.round()
	if i == len(c.entries) {
		return c.fault, knownFault.seed
	}
	return c.entries[i], poolSeed(c.cfg.seed+k/c.round(), corpusSeedPool)
}

// poolSeed maps n into [0, pool).
func poolSeed(n, pool int) int {
	return ((n % pool) + pool) % pool
}

func (c *corpus) op(_ context.Context, k int) (opStats, error) {
	e, seed := c.opAt(k)
	if c.cfg.traced {
		return c.tracedOp(k, e, seed)
	}
	t0 := time.Now()
	rep, pv, _, err := verifyAndRender(nil, 0, k, e, seed)
	st := opStats{latency: time.Since(t0), verdicts: 1}
	if msg := verdictFailure(e, rep, pv, err); msg != "" {
		st.failed = 1
		fmt.Fprintf(os.Stderr, "msbench: failed verdict: %s seed %d: %s\n", e.Name, seed, msg)
	}
	return st, nil
}

// verifyAndRender is one corpus operation as the CLI performs it: verify the
// entry with its runs sequential, then render the report JSON, the heatmap
// (JSON and HTML), the provenance (JSON and HTML) and the digest. Spans go to
// tr under parent; a nil tracer records nothing. It returns the report, its
// provenance (which the checks read) and the artifacts' total size.
func verifyAndRender(tr *telemetry.SpanTracer, parent uint64, k int, e oracle.Entry, seed int) (*core.Report, *report.Provenance, int, error) {
	w, cfg, err := e.Build()
	if err != nil {
		return nil, nil, 0, err
	}
	s := tr.Start("core.verify", parent, k)
	rep, err := core.Verify(w, core.Options{
		Config: cfg, Runs: e.Runs, Warmup: e.Warmup,
		SeedOffset: seed * oracle.SeedStride,
	})
	s.End()
	if err != nil {
		return nil, nil, 0, err
	}
	s = tr.Start("report", parent, k)
	defer s.End()
	pv, size, err := render(tr, s.ID(), k, rep)
	return rep, pv, size, err
}

// render produces every artifact of a report.
func render(tr *telemetry.SpanTracer, parent uint64, k int, rep *core.Report) (*report.Provenance, int, error) {
	size := 0
	s := tr.Start("report.json", parent, k)
	js, err := report.JSON(rep)
	s.End()
	if err != nil {
		return nil, 0, err
	}
	size += len(js)

	s = tr.Start("report.heatmap", parent, k)
	hm, err := report.BuildHeatmap(rep, heatmapWindows)
	if err == nil {
		var hj []byte
		hj, err = hm.JSON()
		size += len(hj) + len(hm.HTML())
	}
	s.End()
	if err != nil {
		return nil, 0, err
	}

	s = tr.Start("report.provenance", parent, k)
	pv, err := report.BuildProvenance(rep)
	if err == nil {
		var pj []byte
		pj, err = pv.JSON()
		size += len(pj) + len(pv.HTMLWithDisasm(rep.Program, 5, 4))
	}
	s.End()
	if err != nil {
		return nil, 0, err
	}

	s = tr.Start("report.digest", parent, k)
	dg, err := report.BuildDigest(rep)
	if err == nil {
		var dj []byte
		dj, err = dg.JSON()
		size += len(dj)
	}
	s.End()
	return pv, size, err
}

// verdictFailure checks one verified entry against its labels: the verdict,
// the MustFlag and MustClean units and, for a leaky entry, that the top
// provenance PC lies in one of its known leak regions. It returns "" when
// every label holds.
func verdictFailure(e oracle.Entry, rep *core.Report, pv *report.Provenance, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	flagged := map[trace.Unit]bool{}
	for _, u := range rep.Units {
		if u.Assoc.Leaky() {
			flagged[u.Unit] = true
		}
	}
	if leaky := len(flagged) > 0; leaky != e.WantLeaky {
		return fmt.Sprintf("verdict leaky=%v, labeled %v", leaky, e.WantLeaky)
	}
	for _, u := range e.MustFlag {
		if !flagged[u] {
			return fmt.Sprintf("unit %s must be flagged", u)
		}
	}
	for _, u := range e.MustClean {
		if flagged[u] {
			return fmt.Sprintf("unit %s must be clean", u)
		}
	}
	if !e.WantLeaky {
		return ""
	}
	if len(pv.Entries) == 0 {
		return "no provenance entry for a leaky entry"
	}
	regions, err := e.ResolveLeakRegions(rep.Program)
	if err != nil {
		return err.Error()
	}
	top := pv.Entries[0].PC
	for _, r := range regions {
		if top >= r[0] && top < r[1] {
			return ""
		}
	}
	return fmt.Sprintf("top provenance PC %#x outside the leak regions %v", top, e.LeakRegions)
}

// tracedOp runs operation k three ways under one span tree: core.Verify
// untraced (the reference), the same pipeline driven layer by layer, and the
// report builders. The layer-by-layer verdicts must equal core.Verify's.
func (c *corpus) tracedOp(k int, e oracle.Entry, seed int) (opStats, error) {
	root := c.tr.StartDetail("corpus.op", 0, k, fmt.Sprintf("%s seed %d", e.Name, seed))
	t0 := time.Now()
	rep, pv, size, verr := verifyAndRender(c.tr, root.ID(), k, e, seed)
	c.count.artifactBytes += size
	ls := c.tr.Start("layers", root.ID(), k)
	assoc, lerr := c.runLayers(ls.ID(), k, e, seed)
	ls.End()
	root.End()
	st := opStats{latency: time.Since(t0), verdicts: 1}
	if msg := verdictFailure(e, rep, pv, verr); msg != "" {
		st.failed = 1
		fmt.Fprintf(os.Stderr, "msbench: failed verdict: %s seed %d: %s\n", e.Name, seed, msg)
	}
	if verr != nil {
		return st, nil
	}
	if lerr != nil {
		return st, fmt.Errorf("%s seed %d: layer pipeline: %w", e.Name, seed, lerr)
	}
	for _, u := range rep.Units {
		got := assoc[u.Unit]
		if got[0].V != u.Assoc.V || got[0].P != u.Assoc.P || got[0].Leaky() != u.Assoc.Leaky() ||
			got[1].V != u.AssocNoTiming.V || got[1].P != u.AssocNoTiming.P {
			return st, fmt.Errorf("%s seed %d unit %s: layers give V=%v p=%v, core.Verify V=%v p=%v",
				e.Name, seed, u.Unit, got[0].V, got[0].P, u.Assoc.V, u.Assoc.P)
		}
	}
	return st, nil
}

// timedTracer is the sim.Tracer shim that times the trace collector inside
// Machine.Run; snapshot hashing happens inside the collector.
type timedTracer struct {
	col   *trace.Collector
	spent time.Duration
}

func (t *timedTracer) OnCycle(p *sim.Probe) {
	t0 := time.Now()
	t.col.OnCycle(p)
	t.spent += time.Since(t0)
}

func (t *timedTracer) OnMark(cycle int64, kind isa.MarkKind, class uint64) {
	t0 := time.Now()
	t.col.OnMark(cycle, kind, class)
	t.spent += time.Since(t0)
}

// runLayers drives one entry through asm, sim (with the timed collector),
// snapshot merge, stats and features exactly as core.Verify does, under
// parent. It returns each unit's timed and timing-free association.
func (c *corpus) runLayers(parent uint64, k int, e oracle.Entry, seed int) (map[trace.Unit][2]stats.Association, error) {
	tr := c.tr
	w, cfg, err := e.Build()
	if err != nil {
		return nil, err
	}
	s := tr.Start("asm.assemble", parent, k)
	prog, err := asm.Assemble(w.Source)
	s.End()
	if err != nil {
		return nil, err
	}
	units := trace.AllUnits()
	cols := make([]*trace.Collector, 0, e.Runs)
	for run := 0; run < e.Runs; run++ {
		s = tr.Start("sim.setup", parent, k)
		m, err := sim.New(cfg)
		if err == nil {
			err = m.LoadProgram(prog)
		}
		if err == nil && w.Setup != nil {
			err = w.Setup(seed*oracle.SeedStride+run, m, prog)
		}
		s.End()
		if err != nil {
			return nil, err
		}
		col := trace.NewCollector(trace.WithUnits(units...), trace.WithWarmupIterations(e.Warmup))
		shim := &timedTracer{col: col}
		m.SetTracer(shim)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runStart := time.Now()
		s = tr.Start("sim.run", parent, k)
		res, err := m.Run(corpusMaxCycles)
		s.End()
		tr.Record("trace.collect", s.ID(), k, runStart, shim.spent)
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, err
		}
		if res.ExitCode != 0 {
			return nil, fmt.Errorf("run %d exited with code %d", run, res.ExitCode)
		}
		c.count.cycles += uint64(res.Cycles)
		c.count.instructions += res.Instructions
		c.count.mallocs += after.Mallocs - before.Mallocs
		for _, n := range col.SampleCounts() {
			c.count.rows += n
		}
		cols = append(cols, col)
	}

	s = tr.Start("snapshot.merge", parent, k)
	full := make(map[trace.Unit]*snapshot.Store, len(units))
	noT := make(map[trace.Unit]*snapshot.Store, len(units))
	for _, u := range units {
		full[u], noT[u] = snapshot.NewStore(), snapshot.NewStore()
	}
	for _, col := range cols {
		for _, ut := range col.Results() {
			full[ut.Unit].Merge(ut.Full)
			noT[ut.Unit].Merge(ut.NoTiming)
		}
	}
	s.End()

	s = tr.Start("stats.analyze", parent, k)
	out := make(map[trace.Unit][2]stats.Association, len(units))
	for _, u := range units {
		t := tableOf(full[u])
		out[u] = [2]stats.Association{t.Analyze(), tableOf(noT[u]).Analyze()}
		c.count.cells += t.Rows() * t.Cols()
		c.count.unique += full[u].Unique()
	}
	s.End()

	s = tr.Start("features.extract", parent, k)
	for _, u := range units {
		if out[u][0].Significant() {
			features.Uniqueness(full[u])
			features.Ordering(noT[u])
		}
	}
	s.End()
	return out, nil
}

// tableOf builds a unit's contingency table from its snapshot store in the
// order core.Verify uses: entries first-seen, classes ascending.
func tableOf(s *snapshot.Store) *stats.Table {
	t := stats.NewTable()
	for _, e := range s.Entries() {
		classes := make([]uint64, 0, len(e.CountByClass))
		for class := range e.CountByClass {
			classes = append(classes, class)
		}
		sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
		for _, class := range classes {
			t.Add(class, e.Hash, e.CountByClass[class])
		}
	}
	return t
}

func (c *corpus) finish(_ context.Context, phase phaseStats) (map[string]metric, error) {
	if !c.cfg.traced {
		return nil, nil
	}
	spans := c.tr.Spans()
	self := selfTimes(spans)
	total := func(name string) time.Duration {
		d, _ := selfByName(spans, self, name)
		return d
	}
	perV := func(d time.Duration) float64 { return perVerdict(ms(d), phase) }
	m := layerMetrics()
	cycles := float64(c.count.cycles)
	simTime := total("sim.setup") + total("sim.run")
	traceTime := total("trace.collect")
	set(m, "sim.ns_per_cycle", float64(simTime.Nanoseconds())/cycles)
	set(m, "sim.cycles", perVerdict(cycles, phase))
	set(m, "sim.instructions", perVerdict(float64(c.count.instructions), phase))
	set(m, "run.mallocs_per_cycle", float64(c.count.mallocs)/cycles)
	set(m, "trace.ns_per_cycle", float64(traceTime.Nanoseconds())/cycles)
	set(m, "trace.rows", perVerdict(float64(c.count.rows), phase))
	set(m, "trace.ns_per_row", float64(traceTime.Nanoseconds())/float64(c.count.rows))
	set(m, "snapshot.unique", perVerdict(float64(c.count.unique), phase))
	set(m, "snapshot.merge_ms_per_verdict", perV(total("snapshot.merge")))
	set(m, "stats.ms_per_verdict", perV(total("stats.analyze")))
	set(m, "stats.table_cells", perVerdict(float64(c.count.cells), phase))
	set(m, "features.ms_per_verdict", perV(total("features.extract")))
	set(m, "asm.ms_per_verdict", perV(total("asm.assemble")))
	set(m, "report.provenance_ms_per_verdict", perV(total("report.provenance")))
	set(m, "report.heatmap_ms_per_verdict", perV(total("report.heatmap")))
	set(m, "report.json_ms_per_verdict", perV(total("report.json")))
	set(m, "report.digest_ms_per_verdict", perV(total("report.digest")))
	set(m, "report.kb_per_verdict", perVerdict(float64(c.count.artifactBytes)/1024, phase))

	var layers, verify time.Duration
	for _, s := range spans {
		switch s.Name {
		case "layers":
			layers += s.Dur
		case "core.verify":
			verify += s.Dur
		}
	}
	layerSelf := simTime + traceTime + total("asm.assemble") + total("snapshot.merge") +
		total("stats.analyze") + total("features.extract")
	set(m, "core.unattributed_ms_per_verdict", perV(verify-layerSelf))
	set(m, "trace_overhead_ratio", float64(layers)/float64(verify))

	path, err := writeSpans(c.cfg, c.tr, &c.jsonl)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "msbench: trace written to", path)
	return m, nil
}

func (c *corpus) close() {}
