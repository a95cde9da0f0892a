package main

// fabric-2node: the harness coordinates fabric.Search with eight shards
// over two servemodel nodes pinned to one core each, default executors and
// stealing, in a closed loop of one caller alternating two problems in a
// seeded order. Plan and merge run in the harness; every shard walk runs on
// a node.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mapper"
	"repro/internal/otrace"
)

const fabricShards = 8

// fabricQueue is each node's admission queue. A single-core node admits one
// walk at a time; its default queue (4) sheds part of the coordinator's own
// fan-out once steals re-queue pieces, and every shed becomes a retry on the
// other node. The fabric is deployed with room for its whole fan-out.
const fabricQueue = 4 * fabricShards

func runFabric(ctx context.Context, h *harness, traced bool) (*outcome, error) {
	_, gold, _, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	hw, sp := caseStudy()
	probs := fabricProblems()
	o := newOutcome(endToEnd, extraMetrics)
	if traced {
		o = newOutcome(perLayer)
	}
	client := newClient(2)
	defer client.CloseIdleConnections()

	var nodes []*node
	stopAll := func() {
		for _, n := range nodes {
			n.stop()
		}
		nodes = nil
	}
	defer stopAll()
	var urls []string
	mopts := make([]*mapper.Options, len(probs))
	for i, p := range probs {
		mopts[i] = &mapper.Options{Spatial: sp, BWAware: true, MaxCandidates: p.budget}
	}
	search := func(ctx context.Context, i, shards int, steals *atomic.Int64) (*mapper.Candidate, *mapper.Stats, error) {
		l := probs[i].layer
		fo := &fabric.Options{Shards: shards, Nodes: urls, ArchName: archPreset, Steals: steals}
		cand, st, err := fabric.Search(ctx, &l, hw, mopts[i], fo)
		if err == nil {
			err = gold[i].check(cand.Mapping.Temporal.String(), cand.Result.CCTotal, cand.EnergyPJ)
		}
		return cand, st, err
	}

	// Set-up: start both nodes and run each problem once.
	setups := make([]float64, 0, h.setupReps)
	for range h.setupReps {
		stopAll()
		t0 := time.Now()
		urls = urls[:0]
		for _, name := range []string{"n1", "n2"} {
			n, err := h.spawn(ctx, name, 1, fabricQueue)
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, n)
			urls = append(urls, n.url)
		}
		for i := range probs {
			if _, _, err := search(ctx, i, fabricShards, nil); err != nil {
				return nil, fmt.Errorf("set-up %s: %w", probs[i].name, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	before, err := scrapeAll(ctx, client, nodes)
	if err != nil {
		return nil, err
	}

	rec := otrace.NewRecorder("ledger", 0, 0)
	// tracedSearch runs one traced search and returns its assembled trace,
	// whose report is the exact critical path, and the summed duration of
	// every shard walk on every node.
	tracedSearch := func(i, shards int, steals *atomic.Int64) (*mapper.Candidate, *mapper.Stats, *otrace.Assembled, int64, error) {
		tctx, root := rec.StartTrace(ctx, "fabric.search", "fabric")
		root.SetTid(1)
		cand, st, err := search(tctx, i, shards, steals)
		root.End()
		if err != nil {
			return nil, nil, nil, 0, err
		}
		id := root.TraceID()
		coord, ok := rec.Export(id)
		if !ok {
			return nil, nil, nil, 0, fmt.Errorf("trace %s not recorded", id)
		}
		traces := []otrace.WireTrace{coord}
		for _, n := range nodes {
			wt, found, err := fetchTrace(ctx, client, n, id.String())
			if err != nil {
				return nil, nil, nil, 0, err
			}
			if found {
				traces = append(traces, wt)
			}
		}
		a, err := otrace.Assemble(rec.Node(), traces)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		var walk int64
		for _, t := range traces {
			for _, s := range t.Spans {
				if s.Name == "shard.walk" {
					walk += s.DurNS
				}
			}
		}
		return cand, st, a, walk, nil
	}

	// The traced run's reference: each problem once as a single shard, the
	// work the eight-shard search would do without sharding overhead.
	refWalk := make([]int64, len(probs))
	if traced {
		for i := range probs {
			_, _, _, w, err := tracedSearch(i, 1, nil)
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", probs[i].name, err)
			}
			refWalk[i] = w
		}
	}

	rng := rand.New(rand.NewSource(h.seed))
	lat := make([][]float64, len(probs))
	tlat := make([][]float64, len(probs))
	var pooled []float64
	var busy time.Duration
	var rep otrace.Report // summed over traced ops
	var walk, ref, diff int64
	var steals atomic.Int64
	var st mapper.Stats // summed over traced ops
	var pr probes
	tracedOps, searches := 0, 0
	start := time.Now()
	for o.attempted < h.minOps || time.Since(start) < h.window {
		for _, i := range rng.Perm(len(probs)) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			traceOp := traced && o.attempted%2 == 0
			o.attempted++
			searches++
			if !traceOp {
				t0 := time.Now()
				_, _, err := search(ctx, i, fabricShards, nil)
				d := time.Since(t0)
				if err != nil {
					o.fail("%s: %v", probs[i].name, err)
					continue
				}
				lat[i] = append(lat[i], ms(d))
				pooled = append(pooled, ms(d))
				busy += d
				continue
			}
			cand, s, a, w, err := tracedSearch(i, fabricShards, &steals)
			if err == nil && tracedOps == 0 {
				err = h.keepTrace("fabric-2node", a)
			}
			if err != nil {
				o.fail("%s: %v", probs[i].name, err)
				continue
			}
			tracedOps++
			r := a.Report
			tlat[i] = append(tlat[i], ms(time.Duration(r.WallNS)))
			rep.PlanNS += r.PlanNS
			rep.QueueNS += r.QueueNS
			rep.WalkNS += r.WalkNS
			rep.StealNS += r.StealNS
			rep.MemoNS += r.MemoNS
			rep.NetworkNS += r.NetworkNS
			rep.MergeNS += r.MergeNS
			rep.OtherNS += r.OtherNS
			diff += abs64(r.DiffNS)
			walk += w
			ref += refWalk[i]
			st.NestsGenerated += s.NestsGenerated
			st.ClassesMerged += s.ClassesMerged
			st.SubtreesPruned += s.SubtreesPruned
			st.Valid += s.Valid
			st.Pruned += s.Pruned
			l := probs[i].layer
			ws := []winner{{core.Problem{Layer: &l, Arch: hw, Mapping: cand.Mapping}, cand.Result.CCTotal}}
			if err := pr.score(ws); err != nil {
				o.fail("%s: %v", probs[i].name, err)
			}
		}
	}

	after, err := scrapeAll(ctx, client, nodes)
	if err != nil {
		return nil, err
	}
	// Every search fans out to the nodes; fewer shard executions than
	// searches × shards means some fell back to local execution.
	if shards := after["servemodel_fabric_shards_total"] - before["servemodel_fabric_shards_total"]; shards < float64(searches*fabricShards) {
		o.invalidate("nodes executed %v shards for %d searches of %d shards", shards, searches, fabricShards)
	}

	if traced {
		n := float64(max(tracedOps, 1))
		m := o.metrics
		m["mapper.searches"] = float64(tracedOps) / n
		m["mapper.walked"] = float64(st.NestsGenerated+st.ClassesMerged) / n
		m["mapper.classes_merged"] = float64(st.ClassesMerged) / n
		m["mapper.subtrees_pruned"] = float64(st.SubtreesPruned) / n
		m["mapper.valid"] = float64(st.Valid) / n
		m["mapper.prune_ratio"] = ratio(float64(st.Pruned), float64(st.Valid))
		m["core.full_evals"] = float64(st.Valid-st.Pruned) / n
		m["core.score_ns"] = ratio(float64(pr.scoreNS), float64(pr.scoreCalls))
		m["serve.shed"] = after["servemodel_admission_shed_total"] - before["servemodel_admission_shed_total"]
		m["fabric.plan_ms"] = float64(rep.PlanNS) / 1e6 / n
		m["fabric.queue_ms"] = float64(rep.QueueNS) / 1e6 / n
		m["fabric.walk_ms"] = float64(rep.WalkNS) / 1e6 / n
		m["fabric.steal_ms"] = float64(rep.StealNS) / 1e6 / n
		m["fabric.memo_ms"] = float64(rep.MemoNS) / 1e6 / n
		m["fabric.network_ms"] = float64(rep.NetworkNS) / 1e6 / n
		m["fabric.merge_ms"] = float64(rep.MergeNS) / 1e6 / n
		m["fabric.other_ms"] = float64(rep.OtherNS) / 1e6 / n
		m["fabric.walk_busy_ms"] = float64(walk) / 1e6 / n
		m["fabric.work_inflation"] = ratio(float64(walk), float64(ref))
		m["fabric.steals"] = float64(steals.Load()) / n
		m["trace.diff_ns"] = float64(diff)
		m["trace.overhead_pct"] = overheadPct(tlat, lat)
		if diff != 0 {
			o.invalidate("critical path does not sum to wall: |diff| %d ns", diff)
		}
		return o, nil
	}

	m := o.metrics
	m["setup_s"] = median(setups)
	summarizeClosedLoop(o, lat, pooled, busy)
	var rss float64
	for _, n := range nodes {
		v, err := peakRSSMB(n.pid)
		if err != nil {
			return nil, err
		}
		rss += v
	}
	m["peak_rss_mb"] = rss
	return o, nil
}

// scrapeAll sums the nodes' /metrics samples.
func scrapeAll(ctx context.Context, c *http.Client, nodes []*node) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, n := range nodes {
		m, err := scrape(ctx, c, n)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}
