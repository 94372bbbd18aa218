package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"microsampler/internal/telemetry"
	"microsampler/internal/telemetry/export"
)

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minTail is how many samples must lie beyond a reported percentile, so
// that the percentile describes a tail and not one or two outliers.
const minTail = 10

// percentile returns the q-quantile of xs by linear interpolation between
// closest ranks. It refuses a quantile with fewer than minTail samples
// beyond it: p90 needs at least 100 samples.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v out of (0, 1)", q)
	}
	if beyond := float64(len(xs)) * (1 - q); beyond < minTail-1e-9 {
		return 0, fmt.Errorf("p%g of %d samples has %.1f beyond it, need %d",
			q*100, len(xs), beyond, minTail)
	}
	return quantile(xs, q), nil
}

// median is the 0.5-quantile without percentile's tail rule: it summarises
// a handful of repeated measurements (set-up times) rather than a tail.
func median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("median of no samples")
	}
	return quantile(xs, 0.5), nil
}

func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// cpuTime is the user+system CPU time this process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its direct children cover. Overlapping children (parallel
// work under one parent) are counted once.
func selfTimes(spans []telemetry.Span) map[uint64]time.Duration {
	children := map[uint64][]telemetry.Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent telemetry.Span, kids []telemetry.Span) time.Duration {
	type iv struct{ lo, hi time.Time }
	pEnd := parent.Start.Add(parent.Dur)
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.Start.Add(k.Dur)
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(pEnd) {
			hi = pEnd
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo.After(cur.hi):
			total += cur.hi.Sub(cur.lo)
			cur = v
		case v.hi.After(cur.hi):
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += cur.hi.Sub(cur.lo)
	}
	return total
}

// selfByName sums the self time of every span with the given name.
func selfByName(spans []telemetry.Span, self map[uint64]time.Duration, name string) (time.Duration, int) {
	var total time.Duration
	n := 0
	for _, s := range spans {
		if s.Name == name {
			total += self[s.ID]
			n++
		}
	}
	return total, n
}

// durations lists the durations of every span with the given name, in ms.
func durations(spans []telemetry.Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.Dur.Nanoseconds())/1e6)
		}
	}
	return out
}

// medianOrZero is the median of xs, or 0 when the layer did no such work.
func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, 0.5)
}

// writeSpans writes the traced run's spans once, at the end: the JSONL
// stream the tracer buffered in memory and its Perfetto rendering.
func writeSpans(cfg benchConfig, tr *telemetry.SpanTracer, jsonl *bytes.Buffer) (string, error) {
	dir := filepath.Join(cfg.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := os.WriteFile(base+".spans.jsonl", jsonl.Bytes(), 0o644); err != nil {
		return "", err
	}
	doc, err := export.Perfetto(tr.Spans()).JSON()
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(base+".perfetto.json", doc, 0o644); err != nil {
		return "", err
	}
	return base + ".perfetto.json", nil
}

// perVerdict divides a total by the verdict count of the timed phase.
func perVerdict(total float64, phase phaseStats) float64 {
	return total / float64(phase.verdicts)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
