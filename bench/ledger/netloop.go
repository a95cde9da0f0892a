package main

// net-cold and net-warm: an in-process closed loop, one caller, cycling a
// seeded shuffle of the four networks through network.Evaluate. net-cold
// resets the memo before every op (outside the timed region) so every op
// pays all its per-layer searches; net-warm warms the memo once in set-up.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/memo"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/otrace"
	"repro/internal/workload"
)

// searchTap is a mapper.SearchFunc around the in-process engine that
// measures each cold per-layer search from outside: a "mapper.search" span
// on the op's trace (the sweep's cover), the call's wall time, the
// generate phase through the obs hooks, and the search's exact Stats.
type searchTap struct {
	mu                                                sync.Mutex
	searches, walked, merged, subtrees, valid, pruned int64
	busy, generate                                    time.Duration
}

func (t *searchTap) run(ctx context.Context, l *workload.Layer, a *arch.Arch, o *mapper.Options) (*mapper.Candidate, *mapper.Stats, error) {
	var gen atomic.Int64
	opt := *o
	opt.Hooks = &obs.SearchHooks{Phase: func(name string, d time.Duration) {
		if name == "generate" {
			gen.Add(int64(d))
		}
	}}
	_, sp := otrace.StartSpan(ctx, "mapper.search", otrace.CatWalk)
	t0 := time.Now()
	cand, st, err := mapper.Best(ctx, l, a, &opt)
	busy := time.Since(t0)
	sp.End()
	if st == nil {
		return nil, nil, err // cancellation: no search ran to completion
	}
	t.mu.Lock()
	t.searches++
	t.walked += int64(st.NestsGenerated + st.ClassesMerged)
	t.merged += int64(st.ClassesMerged)
	t.subtrees += int64(st.SubtreesPruned)
	t.valid += int64(st.Valid)
	t.pruned += int64(st.Pruned)
	t.busy += busy
	t.generate += time.Duration(gen.Load())
	t.mu.Unlock()
	// A search that found no valid mapping is (nil, stats, nil) under the
	// SearchFunc contract; Best reports it as an error.
	return cand, st, nil
}

// memoSnap is a reading of memo.Default's counters.
type memoSnap struct{ hits, misses, waits int64 }

func readMemo() memoSnap {
	c := memo.Default.Counters()
	return memoSnap{c.Hits(), c.Misses(), c.InflightWaits()}
}

func (a memoSnap) sub(b memoSnap) memoSnap {
	return memoSnap{a.hits - b.hits, a.misses - b.misses, a.waits - b.waits}
}

// winner is one search's winning mapping and the score the search gave it.
type winner struct {
	prob core.Problem
	cc   float64
}

// netWinners lists the winners of a network evaluation's searched layers.
func netWinners(res *network.Result, hw *arch.Arch) []winner {
	var ws []winner
	for i := range res.Layers {
		lr := &res.Layers[i]
		if lr.Candidate == nil {
			continue
		}
		l := lr.Layer
		l.Heads = 0 // network.Evaluate searches and scores the per-head problem
		ws = append(ws, winner{core.Problem{Layer: &l, Arch: hw, Mapping: lr.Candidate.Mapping}, lr.Candidate.Result.CCTotal})
	}
	return ws
}

// probes are a traced run's out-of-band measurements, taken after an op
// and outside its timed region.
type probes struct {
	scoreNS, scoreCalls   int64
	lookupNS, lookupCalls int64
}

// score times core.Evaluator.ScoreLatency on winning mappings. It fails
// when a score differs from the one the search reported: the two are the
// same arithmetic, so a difference means the answer is not what it seems.
func (p *probes) score(ws []winner) error {
	ev := core.NewEvaluator()
	for i := range ws {
		v, err := ev.ScoreLatency(&ws[i].prob)
		if err != nil {
			return err
		}
		if v != ws[i].cc {
			return fmt.Errorf("ScoreLatency %v != search result %v on %s", v, ws[i].cc, ws[i].prob.Layer.Name)
		}
	}
	const rounds = 4
	t0 := time.Now()
	for range rounds {
		for i := range ws {
			_, _ = ev.ScoreLatency(&ws[i].prob) // checked above
		}
	}
	p.scoreNS += int64(time.Since(t0))
	p.scoreCalls += int64(rounds * len(ws))
	return nil
}

// lookup times mapper.BestCached on each winner's now-warm key. It fails
// when a lookup misses: the key the probe builds is not the op's.
func (p *probes) lookup(ctx context.Context, ws []winner, opt *mapper.Options) error {
	before := readMemo()
	t0 := time.Now()
	for i := range ws {
		if _, _, err := mapper.BestCached(ctx, ws[i].prob.Layer, ws[i].prob.Arch, opt); err != nil {
			return err
		}
	}
	p.lookupNS += int64(time.Since(t0))
	p.lookupCalls += int64(len(ws))
	if d := readMemo().sub(before); d.misses != 0 {
		return fmt.Errorf("warm-key lookup probe missed %d times", d.misses)
	}
	return nil
}

func runNetLoop(ctx context.Context, h *harness, cold, traced bool) (*outcome, error) {
	gold, _, _, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	hw, sp := caseStudy()
	o := newOutcome(endToEnd, extraMetrics)
	if traced {
		o = newOutcome(perLayer)
	}

	// Set-up: build the inputs and run one pass, which fills the memo for
	// net-warm and takes first-use costs out of net-cold's window.
	var nets []*network.Network
	setups := make([]float64, 0, h.setupReps)
	for range h.setupReps {
		t0 := time.Now()
		nets = nets[:0]
		for _, name := range netNames {
			n, err := buildNetwork(name)
			if err != nil {
				return nil, err
			}
			nets = append(nets, n)
		}
		memo.Default.Reset()
		for _, n := range nets {
			if cold {
				memo.Default.Reset()
			}
			if _, err := evalNetwork(ctx, n); err != nil {
				return nil, fmt.Errorf("set-up %s: %w", n.Name, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	rng := rand.New(rand.NewSource(h.seed))
	plain := &network.Options{}
	tap := &searchTap{}
	tapped := &network.Options{Run: tap.run}
	lookupOpt := &mapper.Options{Spatial: sp, BWAware: true, MaxCandidates: 6000} // network.Evaluate's per-layer key
	rec := otrace.NewRecorder("ledger", 0, 0)
	lat := make([][]float64, len(nets))  // untraced op latency per network, ms
	tlat := make([][]float64, len(nets)) // traced op latency per network, ms
	var pooled []float64
	var busy time.Duration
	var cover, self, diff int64
	var memoD memoSnap
	var pr probes
	tracedOps := 0

	start := time.Now()
	for o.attempted < h.minOps || time.Since(start) < h.window {
		for _, i := range rng.Perm(len(nets)) { // whole cycles keep the classes balanced
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if cold {
				memo.Default.Reset()
			}
			traceOp := traced && o.attempted%2 == 0
			o.attempted++
			var res *network.Result
			var d time.Duration
			var rep otrace.Report
			m0 := readMemo()
			if traceOp {
				tctx, root := rec.StartTrace(ctx, "network.evaluate", "bench")
				t0 := time.Now()
				res, err = network.Evaluate(tctx, nets[i], hw, sp, tapped)
				d = time.Since(t0)
				root.End()
				var a *otrace.Assembled
				if err == nil {
					a, err = assemble(rec, root.TraceID())
				}
				if err == nil {
					rep = a.Report
					if tracedOps == 0 {
						err = h.keepTrace(loopName(cold), a)
					}
				}
			} else {
				t0 := time.Now()
				res, err = network.Evaluate(ctx, nets[i], hw, sp, plain)
				d = time.Since(t0)
			}
			md := readMemo().sub(m0)
			if err != nil {
				o.fail("%s: %v", nets[i].Name, err)
				continue
			}
			if err := gold[i].check(netGoldenOf(netNames[i], res)); err != nil {
				o.fail("%v", err)
				continue
			}
			if !traceOp {
				lat[i] = append(lat[i], ms(d))
				pooled = append(pooled, ms(d))
				busy += d
				continue
			}
			tracedOps++
			tlat[i] = append(tlat[i], ms(d))
			cover += rep.WalkNS
			self += rep.OtherNS
			diff += abs64(rep.DiffNS)
			memoD.hits += md.hits
			memoD.misses += md.misses
			memoD.waits += md.waits
			ws := netWinners(res, hw)
			if err := pr.score(ws); err != nil {
				o.fail("%s: %v", nets[i].Name, err)
			} else if err := pr.lookup(ctx, ws, lookupOpt); err != nil {
				o.fail("%s: %v", nets[i].Name, err)
			}
		}
	}

	if traced {
		n := float64(max(tracedOps, 1))
		m := o.metrics
		m["mapper.searches"] = float64(tap.searches) / n
		m["mapper.search_busy_ms"] = ms(tap.busy) / n
		m["mapper.generate_ms"] = ms(tap.generate) / n
		m["mapper.walked"] = float64(tap.walked) / n
		m["mapper.classes_merged"] = float64(tap.merged) / n
		m["mapper.subtrees_pruned"] = float64(tap.subtrees) / n
		m["mapper.valid"] = float64(tap.valid) / n
		m["mapper.generate_ns_per_walked"] = ratio(float64(tap.generate), float64(tap.walked))
		m["mapper.prune_ratio"] = ratio(float64(tap.pruned), float64(tap.valid))
		m["mapper.cover_ms"] = float64(cover) / 1e6 / n
		m["core.full_evals"] = float64(tap.valid-tap.pruned) / n
		m["core.score_ns"] = ratio(float64(pr.scoreNS), float64(pr.scoreCalls))
		m["network.self_ms"] = float64(self) / 1e6 / n
		m["memo.hits"] = float64(memoD.hits) / n
		m["memo.misses"] = float64(memoD.misses) / n
		m["memo.waits"] = float64(memoD.waits) / n
		m["memo.hit_ratio"] = ratio(float64(memoD.hits), float64(memoD.hits+memoD.misses))
		m["memo.lookup_us"] = ratio(float64(pr.lookupNS), float64(pr.lookupCalls)) / 1e3
		m["trace.diff_ns"] = float64(diff)
		m["trace.overhead_pct"] = overheadPct(tlat, lat)
		if diff != 0 {
			o.invalidate("sweep parts do not sum to wall: |diff| %d ns", diff)
		}
		return o, nil
	}

	o.metrics["setup_s"] = median(setups)
	summarizeClosedLoop(o, lat, pooled, busy)
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	o.metrics["peak_rss_mb"] = rss
	return o, nil
}

// summarizeClosedLoop sets the end-to-end metrics of a one-caller closed
// loop from its untraced ops: per-class latencies (ms), all of them pooled,
// and the time spent inside ops. Throughput is ops over that time, so the
// harness's own bookkeeping between ops never counts against the system.
func summarizeClosedLoop(o *outcome, lat [][]float64, pooled []float64, busy time.Duration) {
	m := o.metrics
	m["ops"] = float64(len(pooled))
	m["ops_per_s"] = ratio(float64(len(pooled)), busy.Seconds())
	m["error_rate"] = ratio(float64(o.failed), float64(o.attempted))
	if v, err := classMedian(lat); err == nil {
		m["latency_p50_ms"] = v
	} else {
		o.invalidate("latency_p50_ms: %v", err)
	}
	if v, err := percentile(pooled, 90); err == nil {
		m["latency_p90_ms"] = v
	} else {
		o.invalidate("latency_p90_ms: %v", err)
	}
	tail, pct := highestPercentile(pooled, 99)
	m["latency_tail_ms"], m["latency_tail_pct"] = tail, float64(pct)
}

// assemble assembles one in-process trace. Its report is the exact sweep:
// search spans (walk) against the rest (other), summing to wall.
func assemble(rec *otrace.Recorder, id otrace.TraceID) (*otrace.Assembled, error) {
	wt, ok := rec.Export(id)
	if !ok {
		return nil, fmt.Errorf("trace %s not recorded", id)
	}
	return otrace.Assemble(rec.Node(), []otrace.WireTrace{wt})
}

func loopName(cold bool) string {
	if cold {
		return "net-cold"
	}
	return "net-warm"
}

// overheadPct compares traced with untraced ops of the same run, class by
// class: 100 · (Σ median traced / Σ median untraced − 1).
func overheadPct(traced, untraced [][]float64) float64 {
	var t, u float64
	for i := range traced {
		if len(traced[i]) > 0 && len(untraced[i]) > 0 {
			t += median(traced[i])
			u += median(untraced[i])
		}
	}
	if u == 0 {
		return 0
	}
	return 100 * (t/u - 1)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
