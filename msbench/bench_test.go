package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"microsampler/internal/telemetry"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs[:99], 0.90); err == nil {
		t.Error("p90 of 99 samples accepted")
	}
	p90, err := percentile(xs, 0.90)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if want := 90.1; p90 < want-1e-9 || p90 > want+1e-9 {
		t.Errorf("p90 = %v, want %v", p90, want)
	}
	if _, err := percentile(xs[:19], 0.50); err == nil {
		t.Error("p50 of 19 samples accepted")
	}
	if p50, err := percentile(xs[:20], 0.50); err != nil || p50 != 10.5 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10.5", p50, err)
	}
	if m, err := median([]float64{3, 1, 2}); err != nil || m != 2 {
		t.Errorf("median = %v, %v; want 2", m, err)
	}
	if _, err := median(nil); err == nil {
		t.Error("median of no samples accepted")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	span := func(id, parent uint64, from, to int) telemetry.Span {
		return telemetry.Span{ID: id, Parent: parent, Name: "s", Start: at(from), Dur: at(to).Sub(at(from))}
	}
	spans := []telemetry.Span{
		span(1, 0, 0, 100),
		span(2, 1, 10, 30),
		span(3, 1, 20, 50),   // overlaps span 2: the union 10..50 counts once
		span(4, 1, 90, 120),  // clipped to the parent's end at 100
		span(5, 2, 12, 28),   // a grandchild: covered by span 2, not by span 1
		span(6, 0, 200, 210), // a second root without children
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{
		1: 50 * time.Millisecond,
		2: 4 * time.Millisecond,
		3: 30 * time.Millisecond,
		4: 30 * time.Millisecond,
		5: 16 * time.Millisecond,
		6: 10 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	if d, n := selfByName(spans, self, "s"); n != 6 || d != 140*time.Millisecond {
		t.Errorf("selfByName = %v over %d spans, want 140ms over 6", d, n)
	}
}

func TestPoolSeedWraps(t *testing.T) {
	for _, c := range []struct{ n, pool, want int }{{0, 64, 0}, {63, 64, 63}, {64, 64, 0}, {-1, 64, 63}, {1030, 1024, 6}} {
		if got := poolSeed(c.n, c.pool); got != c.want {
			t.Errorf("poolSeed(%d, %d) = %d, want %d", c.n, c.pool, got, c.want)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the metric lists must match.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEndSpecs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEndSpecs))
	}
	for i, s := range endToEndSpecs {
		e := b.EndToEnd[i]
		if e.Name != s.name || e.Unit != s.unit || e.Better != s.better {
			t.Errorf("end_to_end[%d] = %s %s %s, benchmark has %s %s %s", i, e.Name, e.Unit, e.Better, s.name, s.unit, s.better)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if len(b.PerLayer) != len(layerSpecs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(layerSpecs))
	}
	for i, s := range layerSpecs {
		p := b.PerLayer[i]
		if p.Name != s.name || p.Unit != s.unit || p.Better != s.better {
			t.Errorf("per_layer[%d] = %s %s %s, benchmark has %s %s %s", i, p.Name, p.Unit, p.Better, s.name, s.unit, s.better)
		}
	}
	for _, w := range b.Workloads {
		if _, err := newWorkload(benchConfig{workload: w.Name}); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}

	// The untraced result carries exactly the end-to-end metrics.
	lat := make([]float64, minOps)
	for i := range lat {
		lat[i] = float64(i)
	}
	m, err := endToEnd(lat, []float64{1, 2, 3}, phaseStats{ops: minOps, verdicts: 2 * minOps, wall: time.Second}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != len(endToEndSpecs) {
		t.Errorf("endToEnd gives %d metrics, want %d", len(m), len(endToEndSpecs))
	}
	for _, s := range endToEndSpecs {
		if mt, ok := m[s.name]; !ok || mt.Unit != s.unit || mt.Value <= 0 {
			t.Errorf("end-to-end metric %s = %+v", s.name, mt)
		}
	}
	if got := m["verdicts_per_s"].Value; got != 200 {
		t.Errorf("verdicts_per_s = %v, want 200", got)
	}
	if got := m["cpu_ms_per_verdict"].Value; got != 5 {
		t.Errorf("cpu_ms_per_verdict = %v, want 5", got)
	}
	if got := len(layerMetrics()); got != len(layerSpecs) {
		t.Errorf("layerMetrics gives %d metrics, want %d", got, len(layerSpecs))
	}

	// The result line has exactly the four keys.
	line, err := json.Marshal(&result{Correct: true, Attempted: 1, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result line %s", line)
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope", "-seconds", "1", "-out", t.TempDir()},
		{"-workload", "corpus", "-trace", "2"},
		{"-bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q", args, code, out.String())
		}
	}
}

// TestSmoke drives every workload through set-up, a few operations with
// every check on, finish and close, untraced and traced, and checks that
// close leaves no temporary directory or listening daemon behind.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a dozen corpus entries and several sweep batches")
	}
	ctx := context.Background()
	for _, name := range []string{"corpus", "sweep-cold", "sweep-warm"} {
		for _, traced := range []bool{false, true} {
			cfg := benchConfig{workload: name, seed: 3, traced: traced, out: t.TempDir()}
			if err := os.MkdirAll(filepath.Join(cfg.out, "tmp"), 0o755); err != nil {
				t.Fatal(err)
			}
			w, err := newWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.setup(ctx); err != nil {
				w.close()
				t.Fatalf("%s: setup: %v", name, err)
			}
			// The corpus' first two entries and its known-fault operation;
			// one batch of sweep-cold; a whole round of sweep-warm.
			ops := []int{0, 1, w.round() - 1}
			switch name {
			case "sweep-cold":
				ops = []int{0}
			case "sweep-warm":
				ops = []int{0, 1, 2, 3}
			}
			phase := phaseStats{ops: len(ops)}
			failed := 0
			for _, k := range ops {
				st, err := w.op(ctx, k)
				if err != nil {
					w.close()
					t.Fatalf("%s traced=%v op %d: %v", name, traced, k, err)
				}
				phase.verdicts += st.verdicts
				failed += st.failed
			}
			wantFailed := 0
			if name == "corpus" {
				wantFailed = 1 // the known false positive
			}
			if failed != wantFailed {
				t.Errorf("%s traced=%v: %d failed verdicts, want %d", name, traced, failed, wantFailed)
			}
			m, err := w.finish(ctx, phase)
			var coordURL string
			if s, ok := w.(*sweep); ok {
				coordURL = s.rig.coord.url
			}
			w.close()
			if err != nil {
				t.Fatalf("%s traced=%v: finish: %v", name, traced, err)
			}
			if traced {
				if len(m) != len(layerSpecs) {
					t.Errorf("%s: %d per-layer metrics, want %d", name, len(m), len(layerSpecs))
				}
				nonzero := "sim.ns_per_cycle"
				if name != "corpus" {
					nonzero = "http.poll_ms"
				}
				if m[nonzero].Value <= 0 {
					t.Errorf("%s: %s = %v", name, nonzero, m[nonzero].Value)
				}
				if _, err := os.Stat(filepath.Join(cfg.out, "traces", name+"-seed3.perfetto.json")); err != nil {
					t.Errorf("%s: no Perfetto trace: %v", name, err)
				}
			}
			left, err := os.ReadDir(filepath.Join(cfg.out, "tmp"))
			if err != nil || len(left) != 0 {
				t.Errorf("%s: temporary directory not emptied: %v %v", name, left, err)
			}
			if coordURL != "" {
				if c, err := net.Dial("tcp", strings.TrimPrefix(coordURL, "http://")); err == nil {
					c.Close()
					t.Errorf("%s: coordinator still listening at %s", name, coordURL)
				}
			}
		}
	}
}
