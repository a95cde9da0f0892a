package serve

// A strict validator for the Prometheus text exposition format (0.0.4),
// applied to the server's full /metrics output after exercising every
// endpoint. Beyond the substring spot-checks in serve_test.go this parses
// every line: HELP/TYPE headers must precede their family's samples, metric
// and label names must be legal, sample values must parse, histogram series
// must be cumulative with a terminal le="+Inf" bucket that equals _count.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mapper"
	"repro/internal/memo"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
	line   int
}

// labelSig canonicalizes a label set minus the "le" label (to group one
// histogram series' buckets).
func labelSig(labels map[string]string) string {
	parts := make([]string, 0, len(labels))
	for k, v := range labels {
		if k == "le" {
			continue
		}
		parts = append(parts, k+"="+v)
	}
	// insertion sort; label sets are tiny
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && parts[j] < parts[j-1]; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
	return strings.Join(parts, ",")
}

// parseLabels parses `key="value",key="value"` with Prometheus escaping.
func parseLabels(s string) (map[string]string, error) {
	out := map[string]string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("no '=' in label segment %q", s)
		}
		name := s[:eq]
		if !labelNameRe.MatchString(name) {
			return nil, fmt.Errorf("illegal label name %q", name)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("label %s: value not quoted", name)
		}
		s = s[1:]
		var b strings.Builder
		closed := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, fmt.Errorf("label %s: trailing backslash", name)
				}
				i++
				switch s[i] {
				case '\\', '"':
					b.WriteByte(s[i])
				case 'n':
					b.WriteByte('\n')
				default:
					return nil, fmt.Errorf("label %s: bad escape \\%c", name, s[i])
				}
				continue
			}
			if c == '"' {
				s = s[i+1:]
				closed = true
				break
			}
			b.WriteByte(c)
		}
		if !closed {
			return nil, fmt.Errorf("label %s: unterminated value", name)
		}
		out[name] = b.String()
		if len(s) > 0 {
			if s[0] != ',' {
				return nil, fmt.Errorf("after label %s: expected ',' got %q", name, s)
			}
			s = s[1:]
		}
	}
	return out, nil
}

// validatePromText parses the full exposition and returns samples by family.
func validatePromText(t *testing.T, text string) map[string][]promSample {
	t.Helper()
	helpSeen := map[string]bool{}
	typeOf := map[string]string{}
	samples := map[string][]promSample{}

	// familyFor maps a sample name to its declared family (histograms expose
	// _bucket/_sum/_count under the family name).
	familyFor := func(name string) string {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && typeOf[base] == "histogram" {
				return base
			}
		}
		return name
	}

	for i, line := range strings.Split(text, "\n") {
		ln := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Errorf("line %d: HELP without text: %q", ln, line)
			}
			if !metricNameRe.MatchString(name) {
				t.Errorf("line %d: illegal metric name %q", ln, name)
			}
			if helpSeen[name] {
				t.Errorf("line %d: duplicate HELP for %s", ln, name)
			}
			helpSeen[name] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, _ := strings.Cut(rest, " ")
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("line %d: illegal type %q for %s", ln, typ, name)
			}
			if !helpSeen[name] {
				t.Errorf("line %d: TYPE %s before its HELP", ln, name)
			}
			if _, dup := typeOf[name]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", ln, name)
			}
			if len(samples[name]) > 0 {
				t.Errorf("line %d: TYPE %s after its samples", ln, name)
			}
			typeOf[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}

		// Sample line: name[{labels}] value
		rest := line
		brace := strings.IndexByte(rest, '{')
		var name string
		labels := map[string]string{}
		if brace >= 0 {
			name = rest[:brace]
			end := strings.LastIndexByte(rest, '}')
			if end < brace {
				t.Errorf("line %d: unterminated label block: %q", ln, line)
				continue
			}
			var err error
			labels, err = parseLabels(rest[brace+1 : end])
			if err != nil {
				t.Errorf("line %d: %v", ln, err)
				continue
			}
			rest = strings.TrimSpace(rest[end+1:])
		} else {
			var ok bool
			name, rest, ok = strings.Cut(rest, " ")
			if !ok {
				t.Errorf("line %d: no value: %q", ln, line)
				continue
			}
		}
		if !metricNameRe.MatchString(name) {
			t.Errorf("line %d: illegal metric name %q", ln, name)
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil && strings.TrimSpace(rest) != "+Inf" && strings.TrimSpace(rest) != "NaN" {
			t.Errorf("line %d: bad value %q: %v", ln, rest, err)
			continue
		}
		fam := familyFor(name)
		if !helpSeen[fam] || typeOf[fam] == "" {
			t.Errorf("line %d: sample %s before HELP/TYPE of family %s", ln, name, fam)
		}
		if typeOf[fam] == "counter" && v < 0 {
			t.Errorf("line %d: counter %s negative: %v", ln, name, v)
		}
		samples[fam] = append(samples[fam], promSample{name: name, labels: labels, value: v, line: ln})
	}

	// Histogram invariants: cumulative buckets, terminal +Inf == _count.
	for fam, typ := range typeOf {
		if typ != "histogram" {
			continue
		}
		type series struct {
			last    float64
			lastLe  float64
			infSeen bool
			inf     float64
		}
		bySig := map[string]*series{}
		counts := map[string]float64{}
		for _, sm := range samples[fam] {
			sig := labelSig(sm.labels)
			switch {
			case strings.HasSuffix(sm.name, "_bucket"):
				le, ok := sm.labels["le"]
				if !ok {
					t.Errorf("line %d: %s bucket without le label", sm.line, fam)
					continue
				}
				sr := bySig[sig]
				if sr == nil {
					sr = &series{last: -1, lastLe: -1e308}
					bySig[sig] = sr
				}
				if sr.infSeen {
					t.Errorf("line %d: %s{%s} bucket after le=\"+Inf\"", sm.line, fam, sig)
				}
				if le == "+Inf" {
					sr.infSeen = true
					sr.inf = sm.value
				} else {
					b, err := strconv.ParseFloat(le, 64)
					if err != nil {
						t.Errorf("line %d: bad le %q", sm.line, le)
						continue
					}
					if b <= sr.lastLe {
						t.Errorf("line %d: %s{%s} bucket bounds not ascending (%v after %v)", sm.line, fam, sig, b, sr.lastLe)
					}
					sr.lastLe = b
				}
				if sm.value < sr.last {
					t.Errorf("line %d: %s{%s} buckets not cumulative (%v after %v)", sm.line, fam, sig, sm.value, sr.last)
				}
				sr.last = sm.value
			case strings.HasSuffix(sm.name, "_count"):
				counts[sig] = sm.value
			}
		}
		for sig, sr := range bySig {
			if !sr.infSeen {
				t.Errorf("%s{%s}: no terminal le=\"+Inf\" bucket", fam, sig)
				continue
			}
			if c, ok := counts[sig]; !ok {
				t.Errorf("%s{%s}: buckets without _count", fam, sig)
			} else if c != sr.inf {
				t.Errorf("%s{%s}: le=\"+Inf\" bucket %v != _count %v", fam, sig, sr.inf, c)
			}
		}
	}
	return samples
}

// TestMetricsStrictFormat exercises every endpoint (including a failing
// request and the new explain/progress routes), then validates the complete
// /metrics output against the text-format rules and checks the new families
// are present and sane.
func TestMetricsStrictFormat(t *testing.T) {
	memo.Default.Reset()
	_, ts := newTestServer(t, Config{})

	if resp, data := post(t, ts, "/v1/search", smallSearch); resp.StatusCode != http.StatusOK {
		t.Fatalf("search = %d: %s", resp.StatusCode, data)
	}
	if resp, data := post(t, ts, "/v1/explain", smallSearch); resp.StatusCode != http.StatusOK {
		t.Fatalf("explain = %d: %s", resp.StatusCode, data)
	}
	post(t, ts, "/v1/search", "{ this is not json")
	if resp, err := http.Get(ts.URL + "/healthz"); err == nil {
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/v1/search/s1/progress"); err == nil {
		resp.Body.Close()
	}
	// Memo traffic populates the per-tier store families (the served store
	// is a WithTrace-wrapped Mem, tier "mem"): one write, one hit, one miss.
	putBody, _ := json.Marshal(memo.WirePut{Enc: []byte("promtext-key"), Version: mapper.DiskVersion(), Blob: []byte("blob")})
	post(t, ts, "/v1/memo/put", string(putBody))
	getBody, _ := json.Marshal(memo.WireGet{Enc: []byte("promtext-key"), Version: mapper.DiskVersion()})
	post(t, ts, "/v1/memo/get", string(getBody))
	missBody, _ := json.Marshal(memo.WireGet{Enc: []byte("promtext-missing"), Version: mapper.DiskVersion()})
	post(t, ts, "/v1/memo/get", string(missBody))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content-type = %q", ct)
	}

	samples := validatePromText(t, string(data))

	bi := samples["servemodel_build_info"]
	if len(bi) != 1 {
		t.Fatalf("servemodel_build_info: %d samples, want 1", len(bi))
	}
	if bi[0].value != 1 || bi[0].labels["go_version"] == "" || bi[0].labels["revision"] == "" {
		t.Errorf("build_info sample malformed: %+v", bi[0])
	}

	phases := map[string]bool{}
	for _, sm := range samples["servemodel_search_phase_seconds"] {
		phases[sm.labels["phase"]] = true
	}
	if !phases["generate"] || !phases["search"] {
		t.Errorf("search_phase_seconds phases = %v, want generate and search", phases)
	}

	if got := samples["servemodel_search_walked_total"]; len(got) != 1 || got[0].value <= 0 {
		t.Errorf("search_walked_total = %+v, want one positive sample", got)
	}
	if got := samples["servemodel_search_live"]; len(got) != 1 || got[0].value != 0 {
		t.Errorf("search_live = %+v, want one zero sample (no search in flight)", got)
	}
	for _, fam := range []string{
		"servemodel_request_seconds", "servemodel_requests_total",
		"servemodel_mapper_searches_total", "servemodel_memo_hits_total",
		"servemodel_admission_slots", "servemodel_uptime_seconds",
	} {
		if len(samples[fam]) == 0 {
			t.Errorf("family %s missing from /metrics", fam)
		}
	}

	// Per-tier store families: the memo put/hit/miss above must land as
	// labeled counters and histogram series under tier "mem".
	ops := map[string]float64{} // op/outcome -> count
	for _, sm := range samples["servemodel_memo_store_ops_total"] {
		if sm.labels["tier"] == "mem" {
			ops[sm.labels["op"]+"/"+sm.labels["outcome"]] += sm.value
		}
	}
	if ops["put/write"] < 1 || ops["get/hit"] < 1 || ops["get/miss"] < 1 {
		t.Errorf("memo_store_ops_total mem cells = %v, want write/hit/miss >= 1", ops)
	}
	var sawGetSeries, sawPutSeries bool
	for _, sm := range samples["servemodel_memo_store_seconds"] {
		if sm.labels["tier"] != "mem" || !strings.HasSuffix(sm.name, "_count") {
			continue
		}
		switch sm.labels["op"] {
		case "get":
			sawGetSeries = sm.value >= 2
		case "put":
			sawPutSeries = sm.value >= 1
		}
	}
	if !sawGetSeries || !sawPutSeries {
		t.Errorf("memo_store_seconds mem series incomplete: get=%v put=%v", sawGetSeries, sawPutSeries)
	}
}
