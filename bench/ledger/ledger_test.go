package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

func seq(lo, hi int) []float64 {
	var xs []float64
	for v := lo; v <= hi; v++ {
		xs = append(xs, float64(v))
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		p    int
		want float64
		ok   bool
	}{
		{seq(1, 100), 90, 90, true},   // rank 90, ten beyond
		{seq(1, 100), 91, 0, false},   // nine beyond
		{seq(1, 20), 50, 10, true},    // rank 10, ten beyond
		{seq(1, 19), 50, 0, false},    // rank 10, nine beyond
		{seq(1, 1000), 99, 990, true}, // p99 needs a thousand samples
	} {
		got, err := percentile(tc.xs, tc.p)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("p%d of %d samples = %v, %v; want %v, ok=%v", tc.p, len(tc.xs), got, err, tc.want, tc.ok)
		}
	}
	if v, p := highestPercentile(seq(1, 50), 99); p != 80 || v != 40 {
		t.Errorf("highest supported percentile of 50 samples = p%d (%v), want p80 (40)", p, v)
	}
}

func TestClassMedian(t *testing.T) {
	got, err := classMedian([][]float64{seq(1, 20), seq(101, 120)})
	if err != nil || got != 60 {
		t.Fatalf("class median = %v, %v; want 60", got, err)
	}
	if _, err := classMedian([][]float64{seq(1, 20), seq(1, 5)}); err == nil {
		t.Fatal("class median accepted a class too small for its median")
	}
}

// TestQuartilesMatchPython pins the quartiles to Python's
// statistics.quantiles(data, n=4), the spread definition checkers use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(1, 10), 2.75, 8.25},
		{seq(1, 5), 1.5, 4.5},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3, err := quartiles(tc.xs)
		if err != nil || q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", tc.xs, q1, q3, err, tc.q1, tc.q3)
		}
	}
}

// TestOpenLoopTimesFromDue: a request released behind a stalled one is
// timed from its due time, so it carries the stall; the release itself is
// on time.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 60 * time.Millisecond
	due := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond}
	ts, err := openLoop(context.Background(), due, 1, func(_ context.Context, i int) time.Time {
		if i == 0 {
			time.Sleep(stall)
		}
		return time.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range ts {
		if x.due != due[i] || x.start < x.due || x.done < x.start || x.lag < 0 {
			t.Errorf("request %d: inconsistent timing %+v", i, x)
		}
		if x.lag > 20*time.Millisecond {
			t.Errorf("request %d released %v late", i, x.lag)
		}
	}
	if l := ts[1].latency(); l < stall-due[1] {
		t.Errorf("request behind the stall took %v from its due time, want >= %v", l, stall-due[1])
	}
	if w := ts[1].start - ts[1].due; w < stall-due[1]-time.Millisecond {
		t.Errorf("request behind the stall waited %v for the connection", w)
	}
}

func TestOpenLoopCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := openLoop(ctx, []time.Duration{0, time.Hour}, 2, func(context.Context, int) time.Time { return time.Now() }); err == nil {
		t.Fatal("canceled open loop reported no error")
	}
}

// TestScheduleSeeded: the stream is a pure function of the seed; fresh
// shapes never repeat and never touch the hot set; every whole block holds
// the stated mix.
func TestScheduleSeeded(t *testing.T) {
	stages := []stage{{100, 2 * time.Second}, {200, 3 * time.Second}, {1200, 2 * time.Second}}
	a, err := schedule(1, stages)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := schedule(1, stages)
	c, _ := schedule(2, stages)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same schedule")
	}
	hotC, hotS := map[[2]int64]bool{}, map[int64]bool{}
	for _, h := range hotConvs {
		hotC[h] = true
	}
	for _, h := range hotSeqs {
		hotS[h] = true
	}
	seenC, seenS := map[[2]int64]bool{}, map[int64]bool{}
	var origin, prev time.Duration
	counts := map[int]map[opKind]int{}
	idx := map[int]int{}
	for _, op := range a {
		switch op.kind {
		case freshSearch:
			if hotC[op.conv] || seenC[op.conv] {
				t.Fatalf("fresh search %v repeats or is hot", op.conv)
			}
			seenC[op.conv] = true
		case freshNet:
			if hotS[op.seq] || seenS[op.seq] {
				t.Fatalf("fresh network %d repeats or is hot", op.seq)
			}
			seenS[op.seq] = true
		case hotSearch:
			if op.conv != hotConvs[op.hot] {
				t.Fatalf("hot search %v is not hot #%d", op.conv, op.hot)
			}
		case hotNet:
			if op.seq != hotSeqs[op.hot] {
				t.Fatalf("hot network %d is not hot #%d", op.seq, op.hot)
			}
		}
		if op.due < prev {
			t.Fatal("arrivals out of order")
		}
		prev = op.due
		origin = 0
		for s := range op.stage {
			origin += stages[s].dur
		}
		if op.due < origin || op.due >= origin+stages[op.stage].dur {
			t.Fatalf("arrival %v outside stage %d", op.due, op.stage)
		}
		block := op.stage*1_000_000 + idx[op.stage]/20
		idx[op.stage]++
		if counts[block] == nil {
			counts[block] = map[opKind]int{}
		}
		counts[block][op.kind]++
	}
	for block, c := range counts {
		total := 0
		for _, n := range c {
			total += n
		}
		if total < 20 {
			continue // a stage's last, partial block
		}
		for k, want := range mixBlock {
			if c[opKind(k)] != want {
				t.Fatalf("block %d holds %d %s, want %d", block, c[opKind(k)], opKind(k), want)
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v + d
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		change []float64
		higher bool
		want   string
	}{
		{"faster", shift(-20), false, improved},
		{"slower", shift(20), false, regressed},
		{"same", shift(0.5), false, unchanged},
		{"higher is better", shift(20), true, improved},
	} {
		if got, _, err := verdict(parent, tc.change, tc.higher, 0.1); err != nil || got != tc.want {
			t.Errorf("%s: verdict %q (%v), want %q", tc.name, got, err, tc.want)
		}
	}
	wide := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if got, _, _ := verdict(wide, wide, false, 0.1); got != unresolved {
		t.Errorf("spread wider than the bound: verdict %q, want unresolved", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the harness in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness %q %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	better := func(m metricDef) string {
		if m.higher {
			return "higher"
		}
		return "lower"
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, the harness %d/%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	maxBound := 0.0
	for i, m := range endToEnd {
		e := spec.EndToEnd[i]
		if e.Name != m.name || e.Unit != m.unit || e.Better != better(m) || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, harness %+v", i, e, m)
		}
		maxBound = max(maxBound, e.Bound)
	}
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must come first with the largest bound")
	}
	for i, m := range perLayer {
		if p := spec.PerLayer[i]; p.Name != m.name || p.Unit != m.unit || p.Better != better(m) {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, harness %+v", i, p, m)
		}
	}
}

// smokeHarness runs briefly, with servemodel's handler served in-process
// from httptest servers so the smoke tests need no build.
func smokeHarness() *harness {
	return &harness{
		seed: 1, window: 400 * time.Millisecond, setupReps: 1, minOps: 2, maxLag: time.Second,
		spawn: func(_ context.Context, name string, _, maxQueue int) (*node, error) {
			s := serve.New(serve.Config{NodeName: name, MaxQueue: maxQueue, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
			ts := httptest.NewServer(s.Handler())
			var once sync.Once
			return &node{name: name, url: ts.URL, stop: func() { once.Do(ts.Close) }}, nil
		},
	}
}

// TestSmokeTraced runs every workload's traced run briefly: every op must
// match its golden and every breakdown must sum to its whole.
func TestSmokeTraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o, err := w.run(context.Background(), smokeHarness(), true)
			if err != nil {
				t.Fatal(err)
			}
			if !o.correct() || o.attempted == 0 {
				t.Fatalf("%d attempted, %d failed, invalid=%v: %v", o.attempted, o.failed, o.invalid, o.problems)
			}
			m := o.metrics
			if m["trace.diff_ns"] != 0 {
				t.Errorf("parts do not sum to the whole: diff %v ns", m["trace.diff_ns"])
			}
			for _, def := range perLayer {
				if _, ok := m[def.name]; !ok {
					t.Errorf("metric %s missing", def.name)
				}
			}
			switch w.name {
			case "net-cold":
				if m["mapper.searches"] == 0 || m["mapper.cover_ms"] == 0 {
					t.Errorf("no searches measured: %v", m)
				}
			case "serve-mix":
				if m["serve.handler_ms"] <= 0 || m["serve.transport_ms"] <= 0 {
					t.Errorf("RTT split empty: %v", m)
				}
			case "fabric-2node":
				if m["fabric.walk_busy_ms"] <= 0 || m["fabric.work_inflation"] <= 0 {
					t.Errorf("no shard walks measured: %v", m)
				}
			}
		})
	}
}
