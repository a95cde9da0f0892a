package main

// serve-mix: one servemodel child on loopback under an open loop of seeded
// Poisson arrivals at three fixed rates, sent over at most serveConns
// connections. Latency runs from each request's due time, so queueing in
// the generator counts. The stages run in increasing rate order, so only
// the last one is past saturation and its backlog cannot leak into the
// others.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/otrace"
	"repro/internal/serve"
	"repro/internal/transformer"
)

// The rate ladder and latency limit, calibrated once on the machine named
// in README.md (Calibration) and never adapted per run. r2 carries the
// latency metrics and gets most of the window; it runs the node at about a
// tenth of its capacity, where a slower machine still leaves the queue
// short, and keeps p99 well within the limit. r1 = r2/2. r3 is twice the
// capacity, so the node never idles in that stage.
var serveLadder = []struct{ rate, share float64 }{{30, 0.2}, {60, 0.6}, {1200, 0.2}}

const (
	serveSLO   = 50 * time.Millisecond // on p99, or the highest percentile a stage supports
	serveConns = 2                     // = nproc of the calibration machine
	// verifyFresh is how many fresh searches, and a quarter as many fresh
	// networks, each run re-computes through the library path after its
	// window to check the served answers.
	verifyFresh = 12
)

type searchBody struct {
	Arch   string       `json:"arch"`
	Layer  config.Layer `json:"layer"`
	Budget int          `json:"budget"`
}

type networkBody struct {
	Arch        string            `json:"arch"`
	Transformer *transformer.Spec `json:"transformer_block"`
}

// requestOf returns the endpoint path and JSON body of op.
func requestOf(op *mixOp) (string, []byte, error) {
	if op.kind == hotNet || op.kind == freshNet {
		b, err := json.Marshal(networkBody{Arch: archPreset, Transformer: gpt2Spec(op.seq)})
		return "/v1/network", b, err
	}
	l := convLayer(op.conv)
	b, err := json.Marshal(searchBody{Arch: archPreset, Layer: config.FromLayer(&l), Budget: searchBudget})
	return "/v1/search", b, err
}

// answer is one request's result as the generator saw it.
type answer struct {
	code   int
	body   []byte
	err    error
	rtt    time.Duration
	traced bool
	// split is the traced request's RTT as admission wait, handler time
	// and transport (client RTT minus the server's span), in ns.
	split    [3]int64
	splitErr error
}

// splitRTT reads the server's spans of a traced request and splits its RTT.
func splitRTT(wt otrace.WireTrace, root *otrace.Span, rtt time.Duration) ([3]int64, error) {
	parent := root.ID().String()
	var srv *otrace.WireSpan
	for i := range wt.Spans {
		if wt.Spans[i].Parent == parent {
			srv = &wt.Spans[i]
		}
	}
	if srv == nil {
		return [3]int64{}, errors.New("no server span under the request")
	}
	var adm int64
	for _, s := range wt.Spans {
		if s.Parent == srv.ID && s.Name == "admission.wait" {
			adm += s.DurNS
		}
	}
	split := [3]int64{adm, srv.DurNS - adm, int64(rtt) - srv.DurNS}
	if split[1] < 0 || split[2] < 0 {
		return split, fmt.Errorf("negative part in RTT split %v (rtt %d ns)", split, int64(rtt))
	}
	return split, nil
}

// keepServeTrace assembles the client's and the server's spans of one
// request for Perfetto.
func keepServeTrace(h *harness, rec *otrace.Recorder, root *otrace.Span, server otrace.WireTrace) error {
	client, ok := rec.Export(root.TraceID())
	if !ok {
		return errors.New("client trace not recorded")
	}
	a, err := otrace.Assemble(rec.Node(), []otrace.WireTrace{client, server})
	if err != nil {
		return err
	}
	return h.keepTrace("serve-mix", a)
}

func runServeMix(ctx context.Context, h *harness, traced bool) (*outcome, error) {
	_, _, gold, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	o := newOutcome(endToEnd, extraMetrics)
	if traced {
		o = newOutcome(perLayer)
	}
	client := newClient(serveConns)
	defer client.CloseIdleConnections()

	// Set-up: start the node and warm the hot set, checking each answer.
	var nd *node
	defer func() {
		if nd != nil {
			nd.stop()
		}
	}()
	setups := make([]float64, 0, h.setupReps)
	for range h.setupReps {
		if nd != nil {
			nd.stop()
		}
		t0 := time.Now()
		if nd, err = h.spawn(ctx, "serve", 0, 0); err != nil {
			return nil, err
		}
		for i := range hotConvs {
			op := mixOp{kind: hotSearch, hot: i, conv: hotConvs[i]}
			if err := sendChecked(ctx, client, nd, &op, &gold); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		for i := range hotSeqs {
			op := mixOp{kind: hotNet, hot: i, seq: hotSeqs[i]}
			if err := sendChecked(ctx, client, nd, &op, &gold); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	stages := make([]stage, len(serveLadder))
	for i, st := range serveLadder {
		stages[i] = stage{st.rate, time.Duration(st.share * float64(h.window))}
	}
	ops, err := schedule(h.seed, stages)
	if err != nil {
		return nil, err
	}
	paths := make([]string, len(ops))
	bodies := make([][]byte, len(ops))
	due := make([]time.Duration, len(ops))
	for i := range ops {
		if paths[i], bodies[i], err = requestOf(&ops[i]); err != nil {
			return nil, err
		}
		due[i] = ops[i].due
	}
	before, err := scrape(ctx, client, nd)
	if err != nil {
		return nil, err
	}

	rec := otrace.NewRecorder("ledger", 0, 0)
	ans := make([]answer, len(ops))
	ts, err := openLoop(ctx, due, serveConns, func(ctx context.Context, i int) time.Time {
		a := &ans[i]
		a.traced = traced && i%2 == 0
		var hdr http.Header
		var root *otrace.Span
		rctx := ctx
		if a.traced {
			rctx, root = rec.StartTrace(ctx, "loadgen.request", "bench")
			hdr = http.Header{}
			otrace.Inject(rctx, hdr)
		}
		t0 := time.Now()
		a.code, a.body, a.err = post(rctx, client, nd.url+paths[i], bodies[i], hdr)
		done := time.Now()
		a.rtt = done.Sub(t0)
		root.End()
		if a.traced && a.err == nil && a.code == http.StatusOK {
			// Fetched at once: the node keeps only its latest 64 traces.
			wt, found, err := fetchTrace(ctx, client, nd, root.TraceID().String())
			switch {
			case err != nil:
				a.splitErr = err
			case !found:
				a.splitErr = errors.New("server recorded no spans for the request")
			default:
				a.split, a.splitErr = splitRTT(wt, root, a.rtt)
			}
			if a.splitErr == nil && i == 0 {
				a.splitErr = keepServeTrace(h, rec, root, wt)
			}
		}
		return done
	})
	if err != nil {
		return nil, err
	}
	after, err := scrape(ctx, client, nd)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(nd.pid)
	if err != nil {
		return nil, err
	}

	// Check every answer: hot ones against the goldens, fresh ones for
	// shape, and a seeded sample of fresh ones against the library path.
	type freshCheck struct {
		op  *mixOp
		ans *answer
	}
	var sampleS, sampleN []freshCheck
	var walkedSum, merged, subtrees, valid, pruned int64
	stageLat := make([][]float64, len(stages))
	stageTLat := make([][]float64, len(stages))
	stageOK := make([]int, len(stages))
	stageFail := make([]int, len(stages))
	stageWait := make([]time.Duration, len(stages)) // longest wait for a connection
	stageLast := make([]time.Duration, len(stages)) // last completion
	var lags []float64
	var splits [3]int64
	var splitDiff int64
	splitN := 0
	for i := range ops {
		op, a, t := &ops[i], &ans[i], ts[i]
		o.attempted++
		if op.stage < len(stages)-1 {
			// The top stage overloads the machine on purpose and is read
			// only for throughput; the generator must keep time below it.
			lags = append(lags, ms(t.lag))
		}
		if err := checkAnswer(op, a, &gold); err != nil {
			o.fail("%s #%d: %v", op.kind, i, err)
			stageFail[op.stage]++
			continue
		}
		if a.splitErr != nil {
			o.invalidate("request %d: %v", i, a.splitErr)
		}
		if a.traced {
			for k := range splits {
				splits[k] += a.split[k]
			}
			splitDiff += abs64(a.split[0] + a.split[1] + a.split[2] - int64(a.rtt))
			splitN++
			stageTLat[op.stage] = append(stageTLat[op.stage], ms(t.latency()))
		} else {
			stageLat[op.stage] = append(stageLat[op.stage], ms(t.latency()))
		}
		stageOK[op.stage]++
		stageWait[op.stage] = max(stageWait[op.stage], t.start-t.due)
		stageLast[op.stage] = max(stageLast[op.stage], t.done)
		switch op.kind {
		case freshSearch:
			var sa searchAnswer
			if err := json.Unmarshal(a.body, &sa); err == nil && sa.Stats != nil {
				walkedSum += int64(sa.Stats.NestsGenerated + sa.Stats.ClassesMerged)
				merged += int64(sa.Stats.ClassesMerged)
				subtrees += int64(sa.Stats.SubtreesPruned)
				valid += int64(sa.Stats.Valid)
				pruned += int64(sa.Stats.Pruned)
			}
			if len(sampleS) < verifyFresh {
				sampleS = append(sampleS, freshCheck{op, a})
			}
		case freshNet:
			if len(sampleN) < verifyFresh/4 {
				sampleN = append(sampleN, freshCheck{op, a})
			}
		}
	}
	var pr probes
	hw, _ := caseStudy()
	for _, fc := range sampleS {
		g, err := searchGoldenOf(ctx, convLayer(fc.op.conv), searchBudget)
		if err != nil {
			return nil, err
		}
		sa, err := decodeSearch(fc.ans.body)
		if err == nil {
			err = g.check(sa.Temporal, sa.Result.CCTotal, sa.EnergyPJ)
		}
		if err == nil && traced {
			var mp *mapping.Mapping
			if mp, err = sa.Mapping.ToMapping(); err == nil {
				l := convLayer(fc.op.conv)
				err = pr.score([]winner{{core.Problem{Layer: &l, Arch: hw, Mapping: mp}, sa.Result.CCTotal}})
			}
		}
		if err != nil {
			o.fail("fresh search %s: %v", g.Name, err)
		}
	}
	for _, fc := range sampleN {
		_, n, err := gpt2Spec(fc.op.seq).Build()
		if err != nil {
			return nil, err
		}
		r, err := evalNetwork(ctx, n)
		if err != nil {
			return nil, err
		}
		g := netGoldenOf(n.Name, r)
		var nr serve.NetworkResponse
		if err := json.Unmarshal(fc.ans.body, &nr); err != nil {
			o.fail("fresh network %s: %v", n.Name, err)
		} else if err := g.check(netGoldenOfResponse(n.Name, &nr)); err != nil {
			o.fail("fresh network: %v", err)
		}
	}
	lag, _ := highestPercentile(lags, 99)
	if lag > ms(h.maxLag) {
		o.invalidate("generator lag p99 %.3f ms > %v", lag, h.maxLag)
	}

	delta := func(name string) float64 { return after[name] - before[name] }
	if traced {
		nOps := float64(max(o.attempted, 1))
		m := o.metrics
		gen := delta(`servemodel_search_phase_seconds_sum{phase="generate"}`)
		m["mapper.searches"] = delta(`servemodel_search_phase_seconds_count{phase="search"}`) / nOps
		m["mapper.search_busy_ms"] = 1e3 * delta(`servemodel_search_phase_seconds_sum{phase="search"}`) / nOps
		m["mapper.generate_ms"] = 1e3 * gen / nOps
		m["mapper.walked"] = float64(walkedSum) / nOps
		m["mapper.classes_merged"] = float64(merged) / nOps
		m["mapper.subtrees_pruned"] = float64(subtrees) / nOps
		m["mapper.valid"] = float64(valid) / nOps
		m["mapper.generate_ns_per_walked"] = ratio(1e9*gen, float64(walkedSum))
		m["mapper.prune_ratio"] = ratio(float64(pruned), float64(valid))
		m["core.full_evals"] = float64(valid-pruned) / nOps
		m["core.score_ns"] = ratio(float64(pr.scoreNS), float64(pr.scoreCalls))
		hits, misses := delta("servemodel_memo_hits_total"), delta("servemodel_memo_misses_total")
		m["memo.hits"] = hits / nOps
		m["memo.misses"] = misses / nOps
		m["memo.waits"] = delta("servemodel_memo_waits_total") / nOps
		m["memo.hit_ratio"] = ratio(hits, hits+misses)
		sn := float64(max(splitN, 1))
		m["serve.admission_wait_ms"] = float64(splits[0]) / 1e6 / sn
		m["serve.handler_ms"] = float64(splits[1]) / 1e6 / sn
		m["serve.transport_ms"] = float64(splits[2]) / 1e6 / sn
		m["serve.shed"] = delta("servemodel_admission_shed_total")
		m["loadgen.lag_p99_ms"] = lag
		m["trace.diff_ns"] = float64(splitDiff)
		tp50, up50 := 0.0, 0.0
		if len(stageTLat[1]) > 0 && len(stageLat[1]) > 0 {
			tp50, up50 = median(stageTLat[1]), median(stageLat[1])
		}
		m["trace.overhead_pct"] = 100 * (ratio(tp50, up50) - 1)
		if up50 == 0 {
			m["trace.overhead_pct"] = 0
		}
		return o, nil
	}

	m := o.metrics
	m["setup_s"] = median(setups)
	m["peak_rss_mb"] = rss
	m["error_rate"] = ratio(float64(o.failed), float64(o.attempted))
	m["ops"] = float64(stageOK[2])
	r2 := stageLat[1]
	if v, err := percentile(r2, 50); err == nil {
		m["latency_p50_ms"] = v
	} else {
		o.invalidate("latency_p50_ms: %v", err)
	}
	if v, err := percentile(r2, 90); err == nil {
		m["latency_p90_ms"] = v
	} else {
		o.invalidate("latency_p90_ms: %v", err)
	}
	tail, pct := highestPercentile(r2, 99)
	m["latency_tail_ms"], m["latency_tail_pct"] = tail, float64(pct)
	// Past saturation the node is never idle, so the top stage's completion
	// rate is the capacity of the mix.
	m["ops_per_s"] = ratio(float64(stageOK[2]), (stageLast[2] - stages[0].dur - stages[1].dur).Seconds())
	good := 0
	for _, l := range stageLat[2] {
		if l <= ms(serveSLO) {
			good++
		}
	}
	m["goodput_per_s"] = float64(good) / stages[2].dur.Seconds()
	for s, st := range stages {
		p90, _ := highestPercentile(stageLat[s], 90)
		tail, _ := highestPercentile(stageLat[s], 99)
		m[fmt.Sprintf("latency_p90_ms.r%d", s+1)] = p90
		m[fmt.Sprintf("latency_tail_ms.r%d", s+1)] = tail
		// Meeting the limit with no backlog: the tail within it, and no
		// request waiting longer than it for a connection.
		if stageFail[s] == 0 && tail <= ms(serveSLO) && stageWait[s] <= serveSLO {
			m["max_rate_under_slo"] = st.rate
		}
	}
	return o, nil
}

// sendChecked sends one op synchronously and checks its answer.
func sendChecked(ctx context.Context, c *http.Client, n *node, op *mixOp, gold *serveGoldens) error {
	path, body, err := requestOf(op)
	if err != nil {
		return err
	}
	var a answer
	a.code, a.body, a.err = post(ctx, c, n.url+path, body, nil)
	return checkAnswer(op, &a, gold)
}

// checkAnswer fails an answer that is not a 200, does not decode, or — for
// hot ops — differs from the golden.
func checkAnswer(op *mixOp, a *answer, gold *serveGoldens) error {
	if a.err != nil {
		return a.err
	}
	if a.code != http.StatusOK {
		return fmt.Errorf("HTTP %d: %.200s", a.code, a.body)
	}
	switch op.kind {
	case hotSearch, freshSearch:
		sa, err := decodeSearch(a.body)
		if err != nil {
			return err
		}
		if op.kind == hotSearch {
			return gold.Search[op.hot].check(sa.Temporal, sa.Result.CCTotal, sa.EnergyPJ)
		}
		if sa.Temporal == "" || sa.Result.CCTotal <= 0 {
			return fmt.Errorf("empty search answer")
		}
	default:
		var nr serve.NetworkResponse
		if err := json.Unmarshal(a.body, &nr); err != nil {
			return err
		}
		if op.kind == hotNet {
			return gold.Network[op.hot].check(netGoldenOfResponse(gold.Network[op.hot].Name, &nr))
		}
		if nr.TotalCC <= 0 || len(nr.Layers) == 0 {
			return fmt.Errorf("empty network answer")
		}
	}
	return nil
}

// decodeSearch decodes a /v1/search answer.
func decodeSearch(body []byte) (*searchAnswer, error) {
	var sa searchAnswer
	if err := json.Unmarshal(body, &sa); err != nil {
		return nil, err
	}
	return &sa, nil
}
