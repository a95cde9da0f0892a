package serve

// Hand-rolled Prometheus text-format metrics (exposition format 0.0.4).
// The repository takes no dependencies beyond the standard library, so
// instead of client_golang this file implements the three instrument kinds
// the service needs — counters, gauges and fixed-bucket histograms — on
// plain atomics, plus a renderer that writes them in a deterministic order
// (sorted families, sorted label values) so /metrics output is diffable and
// testable byte for byte.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mapper"
	"repro/internal/prof"
)

// counter is a monotonically increasing int64.
type counter struct{ v atomic.Int64 }

func (c *counter) Add(n int64) { c.v.Add(n) }
func (c *counter) Load() int64 { return c.v.Load() }

// gauge is a settable int64 level.
type gauge struct{ v atomic.Int64 }

func (g *gauge) Add(n int64) { g.v.Add(n) }
func (g *gauge) Load() int64 { return g.v.Load() }

// histogram observes float64 samples into cumulative buckets. The sum is
// kept as float64 bits behind a CAS loop so Observe stays lock-free.
type histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf is implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds))}
}

func (h *histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// latencyBuckets spans sub-millisecond cache hits to minute-scale searches.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

// phaseBuckets spans the mapper's phase durations, from microsecond
// generator passes to minute-scale exhaustive walks.
var phaseBuckets = []float64{0.0001, 0.001, 0.01, 0.1, 0.5, 2.5, 10, 60}

// labeledHistogram is a histogram family keyed by one label value.
// Labels appear on first observe; reads snapshot under the same lock.
type labeledHistogram struct {
	bounds []float64

	mu      sync.Mutex
	byLabel map[string]*histogram
}

func newLabeledHistogram(bounds []float64) *labeledHistogram {
	return &labeledHistogram{bounds: bounds, byLabel: map[string]*histogram{}}
}

func (lh *labeledHistogram) observe(label string, v float64) {
	lh.mu.Lock()
	h, ok := lh.byLabel[label]
	if !ok {
		h = newHistogram(lh.bounds)
		lh.byLabel[label] = h
	}
	lh.mu.Unlock()
	h.Observe(v)
}

// labels returns the observed label values, sorted.
func (lh *labeledHistogram) labels() []string {
	lh.mu.Lock()
	defer lh.mu.Unlock()
	out := make([]string, 0, len(lh.byLabel))
	for l := range lh.byLabel {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

func (lh *labeledHistogram) get(label string) *histogram {
	lh.mu.Lock()
	defer lh.mu.Unlock()
	return lh.byLabel[label]
}

// endpointMetrics instruments one API endpoint.
type endpointMetrics struct {
	name     string
	inflight gauge
	latency  *histogram

	mu    sync.Mutex
	codes map[int]*counter // HTTP status -> request count
}

func newEndpointMetrics(name string) *endpointMetrics {
	return &endpointMetrics{
		name:    name,
		latency: newHistogram(latencyBuckets),
		codes:   map[int]*counter{},
	}
}

// done records one finished request.
func (em *endpointMetrics) done(code int, seconds float64) {
	em.mu.Lock()
	c, ok := em.codes[code]
	if !ok {
		c = &counter{}
		em.codes[code] = c
	}
	em.mu.Unlock()
	c.Add(1)
	em.latency.Observe(seconds)
}

// searchCounters accumulates mapper.Stats across all served searches.
type searchCounters struct {
	searches counter
	nests    counter
	merged   counter
	subtrees counter
	valid    counter
	skipped  counter
	bbPruned counter
	walked   counter
}

// metrics is the service-wide registry. Endpoints are registered once at
// server construction, so the map is read-only afterwards and needs no lock.
type metrics struct {
	start     time.Time
	endpoints map[string]*endpointMetrics
	shed      counter
	search    searchCounters
	// fabricShards counts shard requests this node executed on behalf of a
	// remote coordinator (POST /v1/shard).
	fabricShards counter
	// phaseSeconds times the mapper's internal phases (generate, score,
	// search, anneal), fed by the telemetry hooks of searches this server computed.
	phaseSeconds *labeledHistogram
	// buildGo / buildRev label the build_info gauge.
	buildGo, buildRev string
}

func newMetrics(start time.Time, endpointNames ...string) *metrics {
	m := &metrics{
		start:        start,
		endpoints:    map[string]*endpointMetrics{},
		phaseSeconds: newLabeledHistogram(phaseBuckets),
	}
	bi := prof.Build()
	m.buildGo, m.buildRev = bi.GoVersion, bi.Revision
	for _, n := range endpointNames {
		m.endpoints[n] = newEndpointMetrics(n)
	}
	return m
}

func (m *metrics) endpoint(name string) *endpointMetrics { return m.endpoints[name] }

// memoSnapshot carries the memo-cache counters into the renderer without
// importing package memo here (keeps the metrics file dependency-free).
type memoSnapshot struct {
	Hits, Misses, Waits, DiskHits, Canceled, Transient int64
}

// admissionSnapshot carries the admission controller's live levels.
type admissionSnapshot struct {
	InUse, Queued int64
	Slots, Queue  int64
}

// storeTierStat carries one memo-store (tier, op) cell into the renderer —
// same no-memo-import convention as memoSnapshot. Buckets are cumulative and
// aligned with Bounds; the +Inf bucket is Count.
type storeTierStat struct {
	Tier, Op string
	Outcomes map[string]uint64
	Bounds   []float64
	Buckets  []uint64
	Sum      float64
	Count    uint64
}

func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// write renders every metric in the Prometheus text exposition format,
// families sorted by name, label sets sorted within a family. searchLive is
// the number of searches with a running progress tracker; tiers is the
// per-tier memo-store registry (memo.TierSnapshots, converted by the
// caller).
func (m *metrics) write(w io.Writer, memo memoSnapshot, adm admissionSnapshot, searchLive int64, tiers []storeTierStat) {
	names := make([]string, 0, len(m.endpoints))
	for n := range m.endpoints {
		names = append(names, n)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "# HELP servemodel_admission_inflight Searches currently holding an admission slot.\n")
	fmt.Fprintf(w, "# TYPE servemodel_admission_inflight gauge\n")
	fmt.Fprintf(w, "servemodel_admission_inflight %d\n", adm.InUse)
	fmt.Fprintf(w, "# HELP servemodel_admission_queue_depth Requests waiting for an admission slot.\n")
	fmt.Fprintf(w, "# TYPE servemodel_admission_queue_depth gauge\n")
	fmt.Fprintf(w, "servemodel_admission_queue_depth %d\n", adm.Queued)
	fmt.Fprintf(w, "# HELP servemodel_admission_shed_total Requests rejected with 429 because the admission queue was full.\n")
	fmt.Fprintf(w, "# TYPE servemodel_admission_shed_total counter\n")
	fmt.Fprintf(w, "servemodel_admission_shed_total %d\n", m.shed.Load())
	fmt.Fprintf(w, "# HELP servemodel_admission_slots Configured concurrent-search slots.\n")
	fmt.Fprintf(w, "# TYPE servemodel_admission_slots gauge\n")
	fmt.Fprintf(w, "servemodel_admission_slots %d\n", adm.Slots)

	fmt.Fprintf(w, "# HELP servemodel_build_info Build identity of the running binary (value is always 1).\n")
	fmt.Fprintf(w, "# TYPE servemodel_build_info gauge\n")
	fmt.Fprintf(w, "servemodel_build_info{go_version=%q,revision=%q} 1\n", m.buildGo, m.buildRev)

	fmt.Fprintf(w, "# HELP servemodel_fabric_shards_total Search shards executed by this node for a remote coordinator.\n")
	fmt.Fprintf(w, "# TYPE servemodel_fabric_shards_total counter\n")
	fmt.Fprintf(w, "servemodel_fabric_shards_total %d\n", m.fabricShards.Load())

	fmt.Fprintf(w, "# HELP servemodel_inflight Requests currently being served, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE servemodel_inflight gauge\n")
	for _, n := range names {
		fmt.Fprintf(w, "servemodel_inflight{endpoint=%q} %d\n", n, m.endpoints[n].inflight.Load())
	}

	for _, mc := range []struct {
		name, help string
		v          int64
	}{
		{"servemodel_mapper_classes_merged_total", "Orderings absorbed into an earlier representative's equivalence class.", m.search.merged.Load()},
		{"servemodel_mapper_nests_total", "Ordered nests handed to evaluation across all served searches.", m.search.nests.Load()},
		{"servemodel_mapper_pruned_total", "Full evaluations skipped by the branch-and-bound lower bound.", m.search.bbPruned.Load()},
		{"servemodel_mapper_searches_total", "Mapping searches completed successfully by this server.", m.search.searches.Load()},
		{"servemodel_mapper_skipped_total", "Orderings beyond the walk budget (counted, not walked).", m.search.skipped.Load()},
		{"servemodel_mapper_subtrees_pruned_total", "Factorization subtrees dropped by the generator's probe bound.", m.search.subtrees.Load()},
		{"servemodel_mapper_valid_total", "Evaluated mappings passing validation.", m.search.valid.Load()},
		{"servemodel_memo_canceled_total", "Memo waits abandoned because the caller's context fired.", memo.Canceled},
		{"servemodel_memo_disk_hits_total", "Searches served from the on-disk store.", memo.DiskHits},
		{"servemodel_memo_hits_total", "Searches served from the in-memory cache.", memo.Hits},
		{"servemodel_memo_misses_total", "Searches that ran because no cache entry existed.", memo.Misses},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", mc.name, mc.help, mc.name, mc.name, mc.v)
	}

	// The per-tier store families sort between the memo_* scalar counters
	// (misses < store < transient). tiers arrives sorted by (tier, op).
	fmt.Fprintf(w, "# HELP servemodel_memo_store_ops_total Memo store operations by tier, op and outcome (hit, miss, write, error).\n")
	fmt.Fprintf(w, "# TYPE servemodel_memo_store_ops_total counter\n")
	for _, ts := range tiers {
		outs := make([]string, 0, len(ts.Outcomes))
		for o := range ts.Outcomes {
			outs = append(outs, o)
		}
		sort.Strings(outs)
		for _, o := range outs {
			fmt.Fprintf(w, "servemodel_memo_store_ops_total{tier=%q,op=%q,outcome=%q} %d\n", ts.Tier, ts.Op, o, ts.Outcomes[o])
		}
	}

	fmt.Fprintf(w, "# HELP servemodel_memo_store_seconds Memo store operation latency, by tier and op.\n")
	fmt.Fprintf(w, "# TYPE servemodel_memo_store_seconds histogram\n")
	for _, ts := range tiers {
		for i, b := range ts.Bounds {
			fmt.Fprintf(w, "servemodel_memo_store_seconds_bucket{tier=%q,op=%q,le=%q} %d\n", ts.Tier, ts.Op, fmtFloat(b), ts.Buckets[i])
		}
		fmt.Fprintf(w, "servemodel_memo_store_seconds_bucket{tier=%q,op=%q,le=\"+Inf\"} %d\n", ts.Tier, ts.Op, ts.Count)
		fmt.Fprintf(w, "servemodel_memo_store_seconds_sum{tier=%q,op=%q} %s\n", ts.Tier, ts.Op, fmtFloat(ts.Sum))
		fmt.Fprintf(w, "servemodel_memo_store_seconds_count{tier=%q,op=%q} %d\n", ts.Tier, ts.Op, ts.Count)
	}

	for _, mc := range []struct {
		name, help string
		v          int64
	}{
		{"servemodel_memo_transient_total", "Context-error results evicted instead of cached.", memo.Transient},
		{"servemodel_memo_waits_total", "Callers coalesced onto another caller's in-flight search.", memo.Waits},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", mc.name, mc.help, mc.name, mc.name, mc.v)
	}

	fmt.Fprintf(w, "# HELP servemodel_request_seconds Request latency, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE servemodel_request_seconds histogram\n")
	for _, n := range names {
		h := m.endpoints[n].latency
		for i, b := range h.bounds {
			fmt.Fprintf(w, "servemodel_request_seconds_bucket{endpoint=%q,le=%q} %d\n", n, fmtFloat(b), h.buckets[i].Load())
		}
		fmt.Fprintf(w, "servemodel_request_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", n, h.count.Load())
		fmt.Fprintf(w, "servemodel_request_seconds_sum{endpoint=%q} %s\n", n, fmtFloat(math.Float64frombits(h.sumBits.Load())))
		fmt.Fprintf(w, "servemodel_request_seconds_count{endpoint=%q} %d\n", n, h.count.Load())
	}

	fmt.Fprintf(w, "# HELP servemodel_requests_total Finished requests, by endpoint and HTTP status.\n")
	fmt.Fprintf(w, "# TYPE servemodel_requests_total counter\n")
	for _, n := range names {
		em := m.endpoints[n]
		em.mu.Lock()
		codes := make([]int, 0, len(em.codes))
		for c := range em.codes {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		vals := make([]int64, len(codes))
		for i, c := range codes {
			vals[i] = em.codes[c].Load()
		}
		em.mu.Unlock()
		for i, c := range codes {
			fmt.Fprintf(w, "servemodel_requests_total{endpoint=%q,code=\"%d\"} %d\n", n, c, vals[i])
		}
	}

	fmt.Fprintf(w, "# HELP servemodel_search_live Searches with a currently running progress tracker.\n")
	fmt.Fprintf(w, "# TYPE servemodel_search_live gauge\n")
	fmt.Fprintf(w, "servemodel_search_live %d\n", searchLive)

	fmt.Fprintf(w, "# HELP servemodel_search_phase_seconds Mapper phase durations (generate, score, search, anneal) of searches computed by this server.\n")
	fmt.Fprintf(w, "# TYPE servemodel_search_phase_seconds histogram\n")
	for _, ph := range m.phaseSeconds.labels() {
		h := m.phaseSeconds.get(ph)
		for i, b := range h.bounds {
			fmt.Fprintf(w, "servemodel_search_phase_seconds_bucket{phase=%q,le=%q} %d\n", ph, fmtFloat(b), h.buckets[i].Load())
		}
		fmt.Fprintf(w, "servemodel_search_phase_seconds_bucket{phase=%q,le=\"+Inf\"} %d\n", ph, h.count.Load())
		fmt.Fprintf(w, "servemodel_search_phase_seconds_sum{phase=%q} %s\n", ph, fmtFloat(math.Float64frombits(h.sumBits.Load())))
		fmt.Fprintf(w, "servemodel_search_phase_seconds_count{phase=%q} %d\n", ph, h.count.Load())
	}

	fmt.Fprintf(w, "# HELP servemodel_search_walked_total Nest orderings walked (generated plus merged) across all served searches.\n")
	fmt.Fprintf(w, "# TYPE servemodel_search_walked_total counter\n")
	fmt.Fprintf(w, "servemodel_search_walked_total %d\n", m.search.walked.Load())

	fmt.Fprintf(w, "# HELP servemodel_uptime_seconds Seconds since the server started.\n")
	fmt.Fprintf(w, "# TYPE servemodel_uptime_seconds gauge\n")
	fmt.Fprintf(w, "servemodel_uptime_seconds %s\n", fmtFloat(time.Since(m.start).Seconds()))
}

// noteStats folds one finished search's statistics into the totals.
func (m *metrics) noteStats(st *mapper.Stats) {
	m.search.searches.Add(1)
	m.search.nests.Add(int64(st.NestsGenerated))
	m.search.merged.Add(int64(st.ClassesMerged))
	m.search.subtrees.Add(int64(st.SubtreesPruned))
	m.search.valid.Add(int64(st.Valid))
	m.search.skipped.Add(int64(st.Skipped))
	m.search.bbPruned.Add(int64(st.Pruned))
	m.search.walked.Add(int64(st.NestsGenerated + st.ClassesMerged))
}
