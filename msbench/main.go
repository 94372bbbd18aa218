// Command msbench is the repository benchmark: it drives the verification
// pipeline the way its users do and prints one JSON result line.
//
// Three workloads exist. "corpus" verifies the labeled oracle corpus through
// the library and renders every artifact, as `mstest run` and the CLI do.
// "sweep-cold" and "sweep-warm" submit grid batches to an in-process msd
// coordinator with two workers; cold batches are simulated, warm batches are
// served from the cluster's caches. One closed-loop client keeps one operation
// in flight.
//
// With -trace 0 the run reports the end-to-end metrics. With -trace 1 it times
// every layer from outside (calls into asm, sim, trace, snapshot, stats,
// features and report, and each daemon's HTTP handler), reports the per-layer
// metrics and writes the spans as JSONL plus a Perfetto document under -out.
//
// See README.md for the metrics, the workloads and how to read the trace.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// Run-shape constants shared by every workload.
const (
	// minOps is the fewest operations an untraced run times: p90 needs at
	// least ten samples beyond it.
	minOps = 100
	// setupRepeats is how often a run sets its workload up; setup_s is the
	// median. Every set-up but the last is torn down again.
	setupRepeats = 3
)

// benchConfig is one invocation's parameters.
type benchConfig struct {
	workload string
	seed     int
	seconds  time.Duration
	traced   bool
	// out holds the temporary daemon stores and the span files.
	out string
}

// opStats is what one timed operation reports back to the loop.
type opStats struct {
	latency  time.Duration
	verdicts int
	failed   int
}

// workload is one benchmark workload. setup leaves it ready to time, with one
// untimed warm-up operation done; op runs operation k (k counts from 0 in the
// timed phase); finish runs the checks that are too costly to do between
// operations and returns the per-layer metrics of a traced run; close
// releases every daemon, goroutine and temporary directory. An error from op
// or finish is a failed correctness check or an infrastructure fault; a
// verdict that contradicts its label is counted in opStats.failed instead.
type workload interface {
	setup(ctx context.Context) error
	round() int
	op(ctx context.Context, k int) (opStats, error)
	finish(ctx context.Context, phase phaseStats) (map[string]metric, error)
	close()
}

// phaseStats summarises the timed phase for finish.
type phaseStats struct {
	ops, verdicts int
	wall          time.Duration
}

func newWorkload(cfg benchConfig) (workload, error) {
	switch cfg.workload {
	case "corpus":
		return newCorpus(cfg), nil
	case "sweep-cold":
		return newSweep(cfg, false), nil
	case "sweep-warm":
		return newSweep(cfg, true), nil
	}
	return nil, fmt.Errorf("unknown workload %q (corpus, sweep-cold or sweep-warm)", cfg.workload)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("msbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg benchConfig
	var seconds, traced int
	fs.StringVar(&cfg.workload, "workload", "", "corpus, sweep-cold or sweep-warm")
	fs.IntVar(&cfg.seed, "seed", 0, "input seed; equal seeds give equal inputs")
	fs.IntVar(&seconds, "seconds", 20, "length of the timed phase")
	fs.IntVar(&traced, "trace", 0, "1: time each layer and report the per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for temporary stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if seconds < 1 || (traced != 0 && traced != 1) {
		fmt.Fprintln(stderr, "msbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.traced = traced == 1
	runtime.GOMAXPROCS(runtime.NumCPU())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := bench(ctx, cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "msbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "msbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench sets the workload up, runs the timed phase and returns the result.
// A failed correctness check yields a result with Correct false; err is
// reserved for runs that could not be measured at all.
func bench(ctx context.Context, cfg benchConfig, log io.Writer) (*result, error) {
	start := time.Now()
	if err := os.MkdirAll(filepath.Join(cfg.out, "tmp"), 0o755); err != nil {
		return nil, err
	}
	var w workload
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		next, err := newWorkload(cfg)
		if err != nil {
			return nil, err
		}
		if err := next.setup(ctx); err != nil {
			next.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			next.close()
			continue
		}
		w = next
	}
	defer w.close()
	fmt.Fprintf(log, "msbench: %s seed %d: set up %d times in %s\n",
		cfg.workload, cfg.seed, setupRepeats, time.Since(start).Round(time.Millisecond))

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var lat []float64
	var checkErr error
	cpu0 := cpuTime()
	t0 := time.Now()
	k := 0
	for ; ; k++ {
		if k%w.round() == 0 && time.Since(t0) >= cfg.seconds && (cfg.traced || k >= minOps) {
			break
		}
		st, err := w.op(ctx, k)
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("interrupted: %w", ctxErr)
		}
		res.Attempted += st.verdicts
		res.Failed += st.failed
		if err != nil {
			checkErr = fmt.Errorf("operation %d: %w", k, err)
			break
		}
		lat = append(lat, st.latency.Seconds()*1e3)
	}
	phase := phaseStats{ops: k, verdicts: res.Attempted, wall: time.Since(t0)}
	cpu := cpuTime() - cpu0
	if checkErr == nil {
		layers, err := w.finish(ctx, phase)
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("interrupted: %w", ctxErr)
		}
		if err != nil {
			checkErr = err
		}
		if cfg.traced {
			res.Metrics = layers
		}
	}
	if checkErr != nil {
		fmt.Fprintln(log, "msbench: check failed:", checkErr)
		res.Correct = false
		return res, nil
	}
	if res.Attempted == 0 {
		return nil, errors.New("no verdicts attempted")
	}
	fmt.Fprintf(log, "msbench: %d operations, %d verdicts (%d failed) in %s\n",
		phase.ops, res.Attempted, res.Failed, phase.wall.Round(time.Millisecond))
	if cfg.traced {
		return res, nil
	}
	e2e, err := endToEnd(lat, setups, phase, cpu)
	if err != nil {
		return nil, err
	}
	res.Metrics = e2e
	return res, nil
}

// endToEnd computes the six end-to-end metrics of an untraced run.
func endToEnd(latMs, setups []float64, phase phaseStats, cpu time.Duration) (map[string]metric, error) {
	p50, err := percentile(latMs, 0.50)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(latMs, 0.90)
	if err != nil {
		return nil, err
	}
	setup, err := median(setups)
	if err != nil {
		return nil, err
	}
	v := float64(phase.verdicts)
	return map[string]metric{
		"setup_s":            {setup, "s"},
		"verdicts_per_s":     {v / phase.wall.Seconds(), "1/s"},
		"op_p50_ms":          {p50, "ms"},
		"op_p90_ms":          {p90, "ms"},
		"cpu_ms_per_verdict": {float64(cpu.Microseconds()) / 1e3 / v, "ms"},
		"peak_rss_mb":        {peakRSSMB(), "MB"},
	}, nil
}
