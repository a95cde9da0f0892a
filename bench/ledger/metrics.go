package main

import "strings"

// metricDef names one reported metric. The end-to-end and per-layer lists
// are the ledger's contract with BENCHMARK.json (TestBenchmarkJSONMatches
// keeps the two in step): every workload reports every end-to-end metric
// from its untraced run and every per-layer metric from its traced run.
type metricDef struct {
	name   string
	unit   string
	higher bool // true: a larger value is better
}

// endToEnd are the metrics a user of the system sees (see README.md for
// their per-workload definitions).
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"ops_per_s", "1/s", true},
	{"latency_p50_ms", "ms", false},
	{"latency_p90_ms", "ms", false},
	{"peak_rss_mb", "MB", false},
}

// extraMetrics are recorded and printed with the untraced run but gated by
// nothing: they are zero in a healthy run (error_rate), quantized to the
// rate ladder (max_rate_under_slo), or defined on one workload only.
var extraMetrics = []metricDef{
	{"error_rate", "ratio", false},
	{"ops", "count", true},
	{"goodput_per_s", "1/s", true},
	{"max_rate_under_slo", "1/s", true},
	{"latency_tail_ms", "ms", false},
	{"latency_tail_pct", "%", false},
}

// perLayer are the traced run's per-layer metrics, per op unless the README
// says otherwise. A workload that does not exercise a layer reports 0.
var perLayer = []metricDef{
	{"mapper.searches", "count", false},
	{"mapper.search_busy_ms", "ms", false},
	{"mapper.generate_ms", "ms", false},
	{"mapper.walked", "count", false},
	{"mapper.classes_merged", "count", false},
	{"mapper.subtrees_pruned", "count", false},
	{"mapper.valid", "count", false},
	{"mapper.generate_ns_per_walked", "ns", false},
	{"mapper.prune_ratio", "ratio", true},
	{"mapper.cover_ms", "ms", false},
	{"core.full_evals", "count", false},
	{"core.score_ns", "ns", false},
	{"network.self_ms", "ms", false},
	{"memo.hits", "count", false},
	{"memo.misses", "count", false},
	{"memo.waits", "count", false},
	{"memo.hit_ratio", "ratio", true},
	{"memo.lookup_us", "us", false},
	{"serve.admission_wait_ms", "ms", false},
	{"serve.handler_ms", "ms", false},
	{"serve.transport_ms", "ms", false},
	{"serve.shed", "count", false},
	{"loadgen.lag_p99_ms", "ms", false},
	{"fabric.plan_ms", "ms", false},
	{"fabric.queue_ms", "ms", false},
	{"fabric.walk_ms", "ms", false},
	{"fabric.steal_ms", "ms", false},
	{"fabric.memo_ms", "ms", false},
	{"fabric.network_ms", "ms", false},
	{"fabric.merge_ms", "ms", false},
	{"fabric.other_ms", "ms", false},
	{"fabric.walk_busy_ms", "ms", false},
	{"fabric.work_inflation", "ratio", false},
	{"fabric.steals", "count", false},
	{"trace.diff_ns", "ns", false},
	{"trace.overhead_pct", "%", false},
}

// unitOf returns the unit of a named metric ("" when unknown). A ".rN"
// suffix names the metric at stage N of serve-mix's rate ladder.
func unitOf(name string) string {
	if base, stage, ok := strings.Cut(name, ".r"); ok && stage != "" && strings.Trim(stage, "0123456789") == "" {
		name = base
	}
	for _, list := range [][]metricDef{endToEnd, extraMetrics, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}
