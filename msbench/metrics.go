package main

// metricSpec names one reported metric with its unit and direction. The
// lists below define what the benchmark reports; BENCHMARK.json repeats them and
// a self-test keeps the two in step.
type metricSpec struct {
	name, unit, better string
}

// endToEndSpecs are reported by every untraced run.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower"},
	{"verdicts_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"cpu_ms_per_verdict", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// layerSpecs are reported by every traced run. A layer that a workload does
// not exercise reads 0 there (the corpus has no HTTP; the sweeps' simulator
// runs inside the daemons, where only its counters are visible).
var layerSpecs = []metricSpec{
	// Simulator and trace collector, timed through a tracer shim (corpus);
	// the cycle, instruction and row counts also come from the workers'
	// registries on the sweeps.
	{"sim.ns_per_cycle", "ns", "lower"},
	{"sim.cycles", "cycles/verdict", "lower"},
	{"sim.instructions", "instr/verdict", "lower"},
	{"run.mallocs_per_cycle", "1/cycle", "lower"},
	{"trace.ns_per_cycle", "ns", "lower"},
	{"trace.rows", "rows/verdict", "lower"},
	{"trace.ns_per_row", "ns", "lower"},
	// Snapshot merge, statistics, features and assembly (corpus).
	{"snapshot.unique", "1/verdict", "lower"},
	{"snapshot.merge_ms_per_verdict", "ms", "lower"},
	{"stats.ms_per_verdict", "ms", "lower"},
	{"stats.table_cells", "1/verdict", "lower"},
	{"features.ms_per_verdict", "ms", "lower"},
	{"asm.ms_per_verdict", "ms", "lower"},
	// Artifact rendering (corpus).
	{"report.provenance_ms_per_verdict", "ms", "lower"},
	{"report.heatmap_ms_per_verdict", "ms", "lower"},
	{"report.json_ms_per_verdict", "ms", "lower"},
	{"report.digest_ms_per_verdict", "ms", "lower"},
	{"report.kb_per_verdict", "KB", "lower"},
	// What core.Verify spends beyond the layers above, and the cost of
	// timing them (corpus).
	{"core.unattributed_ms_per_verdict", "ms", "lower"},
	{"trace_overhead_ratio", "ratio", "lower"},
	// msd HTTP surface, timed by middleware around each daemon's handler.
	{"http.submit_ms", "ms", "lower"},
	{"http.poll_ms", "ms", "lower"},
	{"http.polls_per_op", "1/op", "lower"},
	{"http.poll_kb_per_op", "KB/op", "lower"},
	// Cluster dispatch.
	{"cluster.execute_ms", "ms", "lower"},
	{"cluster.executes_per_verdict", "1/verdict", "lower"},
	{"cluster.idle_ms_per_op", "ms", "lower"},
	{"cluster.reassigned", "count", "lower"},
	{"cluster.hedged", "count", "lower"},
	{"cluster.degraded", "count", "lower"},
	// Verdict caches: worker hit ratio and the coordinator's shared store.
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.fill_get_ms", "ms", "lower"},
	{"cache.fill_put_ms", "ms", "lower"},
	{"cache.fill_gets", "1/verdict", "lower"},
	{"cache.fill_puts", "1/verdict", "lower"},
	// Durable logs.
	{"journal.records_per_verdict", "1/verdict", "lower"},
	{"journal.kb_per_verdict", "KB", "lower"},
	{"history.appends_per_verdict", "1/verdict", "lower"},
	// Coordinator retention.
	{"msd.retained_batches", "count", "lower"},
	{"msd.heap_mb_end", "MB", "lower"},
}

// layerMetrics returns every per-layer metric at 0, for a workload to fill
// in the layers it exercises.
func layerMetrics() map[string]metric {
	out := make(map[string]metric, len(layerSpecs))
	for _, s := range layerSpecs {
		out[s.name] = metric{0, s.unit}
	}
	return out
}

// set stores a per-layer metric, keeping its declared unit.
func set(m map[string]metric, name string, v float64) {
	mt, ok := m[name]
	if !ok {
		panic("msbench: undeclared layer metric " + name)
	}
	mt.Value = v
	m[name] = mt
}
