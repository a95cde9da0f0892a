package serve

// End-to-end tests over httptest: happy paths for all three endpoints,
// request coalescing, deadline expiry (504), admission shedding (429),
// malformed bodies (400), the determinism guard (served bytes == library
// bytes) and graceful-shutdown draining. Run under -race in CI.

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/mapper"
	"repro/internal/memo"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = discardLogger()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// smallSearch is a request whose search finishes in milliseconds.
const smallSearch = `{"layer":{"name":"l0","kind":"matmul","dims":{"B":32,"K":32,"C":32}},"budget":500}`

// bigSearch is a request that runs far longer than any test deadline used
// against it — an annealing run of ten million iterations (a few hundred
// thousand per second) — while still observing cancellation within 64
// iterations (well under a millisecond).
const bigSearch = `{"layer":{"name":"big","kind":"matmul","dims":{"B":192,"K":192,"C":192}},"anneal":true,"iterations":10000000,"restarts":1}`

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Fatalf("healthz status = %q, want ok", body["status"])
	}
}

func TestSearchHappy(t *testing.T) {
	memo.Default.Reset()
	_, ts := newTestServer(t, Config{})
	resp, data := post(t, ts, "/v1/search", smallSearch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search = %d: %s", resp.StatusCode, data)
	}
	var out SearchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Result.CCTotal <= 0 || out.Temporal == "" || out.Stats == nil || out.Stats.Valid == 0 {
		t.Fatalf("implausible search response: %+v", out)
	}
	if out.Arch != arch.InHouse().Name {
		t.Fatalf("default arch = %q, want the inhouse preset", out.Arch)
	}
}

// TestEvalRoundtrip feeds the mapping a search returned back through
// /v1/eval and expects the identical latency.
func TestEvalRoundtrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := post(t, ts, "/v1/search", smallSearch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search = %d: %s", resp.StatusCode, data)
	}
	var found SearchResponse
	if err := json.Unmarshal(data, &found); err != nil {
		t.Fatal(err)
	}
	evalReq, err := json.Marshal(map[string]any{
		"layer":   json.RawMessage(`{"name":"l0","kind":"matmul","dims":{"B":32,"K":32,"C":32}}`),
		"mapping": found.Mapping,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, data = post(t, ts, "/v1/eval", string(evalReq))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval = %d: %s", resp.StatusCode, data)
	}
	var priced EvalResponse
	if err := json.Unmarshal(data, &priced); err != nil {
		t.Fatal(err)
	}
	if priced.Result.CCTotal != found.Result.CCTotal {
		t.Fatalf("eval re-priced the searched mapping differently: %v vs %v",
			priced.Result.CCTotal, found.Result.CCTotal)
	}
}

func TestNetworkHappy(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := post(t, ts, "/v1/network", `{"net":"handtracking","budget":300}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("network = %d: %s", resp.StatusCode, data)
	}
	var out NetworkResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Layers) == 0 || out.TotalCC <= 0 || out.Utilization <= 0 || out.Utilization > 1 {
		t.Fatalf("implausible network response: layers=%d total=%v util=%v",
			len(out.Layers), out.TotalCC, out.Utilization)
	}
}

func TestMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
		field            string // the error must name it, when set
		status           int    // 0: 400 with the standard error body
	}{
		{"unknown field", "/v1/search", `{"layre":{}}`, "", 0},
		{"syntax error", "/v1/search", `{"layer":`, "", 0},
		{"trailing data", "/v1/search", smallSearch + ` {"garbage":`, "", 0},
		{"trailing value", "/v1/search", smallSearch + ` {}`, "", 0},
		{"bad kind", "/v1/search", `{"layer":{"name":"x","kind":"conv9d","dims":{"B":1}}}`, "", 0},
		{"bad objective", "/v1/search", `{"layer":{"name":"x","kind":"matmul","dims":{"B":8,"K":8,"C":8}},"objective":"speed"}`, "", 0},
		{"bad preset", "/v1/search", `{"layer":{"name":"x","kind":"matmul","dims":{"B":8,"K":8,"C":8}},"arch":"warpdrive"}`, "", 0},
		{"bad spatial", "/v1/search", `{"layer":{"name":"x","kind":"matmul","dims":{"B":8,"K":8,"C":8}},"spatial":"K banana"}`, "", 0},
		{"eval without mapping", "/v1/eval", `{"layer":{"name":"x","kind":"matmul","dims":{"B":8,"K":8,"C":8}}}`, "", 0},
		{"unknown net", "/v1/network", `{"net":"skynet"}`, "", 0},
		{"nosym search", "/v1/search", strings.TrimSuffix(smallSearch, "}") + `,"nosym":true}`, "nosym", 0},
		{"nosym explain", "/v1/explain", strings.TrimSuffix(smallSearch, "}") + `,"nosym":true}`, "nosym", 0},
		{"nosym network", "/v1/network", `{"net":"handtracking","nosym":true}`, "nosym", 0},
		// The fabric no longer steals work: a shard carrying an old
		// coordinator's steal handle is refused, and the steal route is gone.
		{"shard sid", "/v1/shard", `{"arch":"casestudy","layer":{"name":"m","kind":"matmul","dims":{"B":16,"K":32,"C":32}},"shard":{"depth":1,"lo":0,"hi":1},"sid":"c0ffee-1"}`, "sid", 0},
		{"shard steal", "/v1/shard/steal", `{"sid":"c0ffee-1"}`, "", http.StatusNotFound},
	}
	for _, tc := range cases {
		resp, data := post(t, ts, tc.path, tc.body)
		if tc.status != 0 {
			if resp.StatusCode != tc.status {
				t.Errorf("%s: status = %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, data)
			}
			continue
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", tc.name, resp.StatusCode, data)
		}
		var eb errorBody
		if err := json.Unmarshal(data, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body %q not of the standard shape", tc.name, data)
		}
		if !strings.Contains(eb.Error, tc.field) {
			t.Errorf("%s: error %q does not name %q", tc.name, eb.Error, tc.field)
		}
	}
	// Trailing whitespace after the value is not trailing data.
	if resp, data := post(t, ts, "/v1/search", smallSearch+" \n\t\r\n"); resp.StatusCode != http.StatusOK {
		t.Errorf("trailing whitespace: status = %d, want 200 (%s)", resp.StatusCode, data)
	}
}

// TestCoalesce: concurrent identical requests share ONE underlying search —
// the memo cache reports exactly one miss.
func TestCoalesce(t *testing.T) {
	memo.Default.Reset()
	_, ts := newTestServer(t, Config{MaxConcurrent: 4})
	before := memo.Default.Counters().Misses()
	const n = 4
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(smallSearch))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: status %d", i, c)
		}
	}
	if d := memo.Default.Counters().Misses() - before; d != 1 {
		t.Fatalf("%d identical requests ran %d underlying searches, want 1", n, d)
	}
}

// TestDeadline504: a request whose own timeout_ms expires mid-search gets a
// 504 and the cache stays clean for the next caller.
func TestDeadline504(t *testing.T) {
	memo.Default.Reset()
	_, ts := newTestServer(t, Config{})
	body := strings.TrimSuffix(bigSearch, "}") + `,"timeout_ms":1}`
	resp, data := post(t, ts, "/v1/search", body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired search = %d, want 504 (%s)", resp.StatusCode, data)
	}
	if n := memo.Default.Len(); n != 0 {
		t.Fatalf("timed-out search left %d memo entries", n)
	}
}

// TestQueueFull429: with one slot held and no queue, the next search sheds
// with 429 + Retry-After and the shed counter shows up in /metrics.
func TestQueueFull429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: -1})
	release, err := s.adm.acquire(context.Background(), defaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	resp, data := post(t, ts, "/v1/search", smallSearch)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated search = %d, want 429 (%s)", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	mresp, mdata := get(t, ts, "/metrics")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", mresp.StatusCode)
	}
	if !strings.Contains(string(mdata), "servemodel_admission_shed_total 1") {
		t.Fatalf("metrics missing shed counter:\n%s", mdata)
	}
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestMetricsRender: the exposition output carries every family with the
// TYPE headers Prometheus needs, and request counts move.
func TestMetricsRender(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts, "/v1/search", smallSearch)
	resp, data := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content-type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE servemodel_requests_total counter",
		"# TYPE servemodel_request_seconds histogram",
		"# TYPE servemodel_inflight gauge",
		"servemodel_requests_total{endpoint=\"search\",code=\"200\"} 1",
		"servemodel_mapper_searches_total 1",
		"servemodel_memo_hits_total",
		"servemodel_admission_slots",
		"servemodel_request_seconds_bucket{endpoint=\"search\",le=\"+Inf\"} 1",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestDeterminismGuard: the served search result is byte-identical to what
// the library path (mapper.BestCached + the same response constructor)
// produces — the server adds transport, not arithmetic. The memo cache is
// reset in between, so the served bytes come from a fresh search, not from
// the entry the direct call planted.
func TestDeterminismGuard(t *testing.T) {
	cl := config.Layer{Name: "l0", Kind: "matmul", Dims: map[string]int64{"B": 32, "K": 32, "C": 32}}
	l, err := cl.ToLayer()
	if err != nil {
		t.Fatal(err)
	}
	hw, sp := arch.InHouse(), arch.InHouseSpatial()
	cand, stats, err := mapper.BestCached(context.Background(), &l, hw, &mapper.Options{
		Spatial:       sp,
		MaxCandidates: 500,
		BWAware:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantResp := searchResponse(&l, hw, cand, stats)
	wantResp.SearchID = "s1" // transport metadata: first server-assigned id
	want, err := json.MarshalIndent(wantResp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	memo.Default.Reset() // force the server down the uncached path
	_, ts := newTestServer(t, Config{})
	resp, got := post(t, ts, "/v1/search", smallSearch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search = %d: %s", resp.StatusCode, got)
	}
	// writeJSON's encoder terminates with a newline; MarshalIndent does not.
	if string(got) != string(want)+"\n" {
		t.Fatalf("served response diverged from the library result:\nserved: %s\nlibrary: %s", got, want)
	}
}

// TestGracefulDrain: shutting down with an expired drain window force-
// cancels the in-flight search, which answers 503, and the server still
// closes cleanly within the grace period.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{DefaultTimeout: time.Minute})
	type result struct {
		code int
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(bigSearch))
		if err != nil {
			resc <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		resc <- result{code: resp.StatusCode}
	}()
	// Wait until the search actually holds its admission slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.inUse() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("search never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Shutdown(ts.Config, 50*time.Millisecond); err != nil {
		t.Fatalf("forced shutdown did not complete: %v", err)
	}
	select {
	case r := <-resc:
		if r.err != nil {
			t.Fatalf("drained request errored at transport level: %v", r.err)
		}
		if r.code != http.StatusServiceUnavailable {
			t.Fatalf("drained search = %d, want 503", r.code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never finished after force-cancel")
	}
	if err := s.base.Err(); err == nil {
		t.Fatal("base context not canceled by the forced drain")
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err == nil {
		// If the listener is somehow still accepting, health must say draining.
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("post-shutdown healthz = %d, want 503", resp.StatusCode)
		}
	}
}
