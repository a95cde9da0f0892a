// Package fabric fans one mapper.Best search out over K deterministic
// subtree shards — local goroutines, remote servemodel nodes, or remote
// with local failover — and merges the shard outcomes back into a result
// that is bit-identical to the single-engine search (DESIGN.md §13).
//
// The determinism contract is mapper's, end to end: PlanShards partitions
// the canonical walk into contiguous prefix ranges with exact walk-state
// handoff, every shard re-derives the same geometry from (layer, arch,
// options), and MergeShards re-reduces under the engine's own (score, seq)
// order. WHERE a shard executes — this process, any node, after any number
// of retries — cannot change a single emitted seq, so Best, the exact Stats
// counters and the CLI rendering are byte-identical for any K, any node
// list and any worker count. Only the trajectory-dependent Pruned counter
// varies, exactly as it already does across worker counts.
package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/mapper"
	"repro/internal/otrace"
	"repro/internal/workload"
)

// coordTid is the Perfetto lane for the coordinator's own phases (plan,
// merge); executors take lanes coordTid+1..coordTid+E.
const coordTid = 1

// Options configures the fan-out. The zero value is a local single-shard
// search (identical to mapper.Best).
type Options struct {
	// Shards is K, the number of subtree shards (<= 0 and 1 both mean one).
	Shards int
	// Nodes lists servemodel base URLs ("http://host:port") eligible to
	// execute shards. Empty runs every shard in-process. Shard i starts at
	// node i%len(Nodes) and retries the others in order; when all nodes fail
	// the shard falls back to local execution (NoLocalFallback disables
	// that). Do not list THIS server in its own node list — a node executing
	// its own fan-out can deadlock its admission queue against itself.
	Nodes []string
	// ArchName / ArchConfig tell remote nodes which architecture to load:
	// ArchName names a servemodel preset, ArchConfig inlines the config JSON
	// form. With both empty the client inlines config.FromArch(arch) —
	// exact for byte-granular capacities and default port assignments (all
	// presets), best-effort otherwise. Ignored for local execution.
	ArchName   string
	ArchConfig *config.Arch
	// Tenant is forwarded as the X-Tenant header for the peers' weighted-
	// fair admission.
	Tenant string
	// TimeoutMS is the per-shard-request timeout_ms forwarded to remote
	// nodes (0: the node's default timeout).
	TimeoutMS int
	// Client overrides the HTTP client (nil: http.DefaultClient; requests
	// are always bounded by ctx).
	Client *http.Client
	// NoLocalFallback fails a shard whose every node attempt failed instead
	// of recomputing it locally.
	NoLocalFallback bool
	// Executors bounds concurrently executing shards (default: Shards).
	// Fewer executors than shards turns the plan into a work queue; more
	// lets the pool split running shards onto the surplus via stealing.
	Executors int
	// NoSteal disables work stealing: an executor that runs out of queued
	// shards just waits. The result is bit-identical either way (stealing
	// re-plans exact position ranges); only wall-clock changes.
	NoSteal bool
	// Steals, when non-nil, is incremented once per landed steal (a shard
	// stopped early and its remainder re-queued) — observability only.
	Steals *atomic.Int64
}

// Search is mapper.Best executed over fo.Shards shards: same signature, same
// results, same no-valid-mapping error. Hooks are not threaded into shard
// execution (the fan-out is the observable unit); a custom EnergyTable
// cannot cross the wire, so it forces local execution of every shard.
func Search(ctx context.Context, l *workload.Layer, a *arch.Arch, mo *mapper.Options, fo *Options) (*mapper.Candidate, *mapper.Stats, error) {
	cand, stats, err := search(ctx, l, a, mo, fo)
	if err != nil {
		return nil, nil, err
	}
	if cand == nil {
		return nil, stats, mapper.NoValidMappingError(l, a, stats)
	}
	return cand, stats, nil
}

// Runner adapts the fan-out to mapper.SearchFunc for BestCachedVia: the
// returned function reports a completed-but-empty search as (nil, stats,
// nil), runSearch's convention, so cache semantics match the local engine.
func Runner(fo *Options) mapper.SearchFunc {
	return func(ctx context.Context, l *workload.Layer, a *arch.Arch, o *mapper.Options) (*mapper.Candidate, *mapper.Stats, error) {
		return search(ctx, l, a, o, fo)
	}
}

func search(ctx context.Context, l *workload.Layer, a *arch.Arch, mo *mapper.Options, fo *Options) (*mapper.Candidate, *mapper.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if fo == nil {
		fo = &Options{}
	}
	k := fo.Shards
	if k < 1 {
		k = 1
	}
	_, planSp := otrace.StartSpan(ctx, "fabric.plan", otrace.CatPlan)
	planSp.SetTid(coordTid)
	plan, err := mapper.PlanShards(ctx, l, a, mo, k)
	if err != nil {
		planSp.End()
		return nil, nil, err
	}
	planSp.SetAttr("shards", fmt.Sprintf("%d", len(plan.Specs)))
	planSp.SetAttr("total", fmt.Sprintf("%d", plan.Total))
	planSp.End()

	shardOpts := *mo
	shardOpts.Hooks = nil
	nodes := fo.Nodes
	if mo.EnergyTable != nil {
		nodes = nil
	}
	var baseReq *ShardRequest
	if len(nodes) > 0 {
		baseReq, err = buildRequest(l, a, &shardOpts, fo)
		if err != nil {
			return nil, nil, err
		}
	}

	// Fan out through the executor pool. The first failure cancels the
	// siblings: a dead shard makes the exact merge impossible, so finishing
	// the others is wasted work.
	e := fo.Executors
	if e <= 0 {
		e = len(plan.Specs)
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	p := newPool(runCtx, cancel, l, a, &shardOpts, fo, nodes, baseReq, plan)
	var wg sync.WaitGroup
	for i := 0; i < e; i++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			p.executor(tid)
		}(coordTid + 1 + i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if p.err != nil {
		return nil, nil, p.err
	}
	if fo.Steals != nil {
		fo.Steals.Add(p.steals)
	}
	_, mergeSp := otrace.StartSpan(ctx, "fabric.merge", otrace.CatMerge)
	mergeSp.SetTid(coordTid)
	mergeSp.SetAttr("outcomes", fmt.Sprintf("%d", len(p.outs)))
	cand, stats, err := mapper.MergeShards(l, a, mo, p.outs)
	mergeSp.End()
	return cand, stats, err
}

// buildRequest assembles the node-independent part of the shard requests.
func buildRequest(l *workload.Layer, a *arch.Arch, o *mapper.Options, fo *Options) (*ShardRequest, error) {
	obj, err := objectiveName(o.Objective)
	if err != nil {
		return nil, err
	}
	req := &ShardRequest{
		Arch:            fo.ArchName,
		ArchConfig:      fo.ArchConfig,
		Spatial:         o.Spatial.String(),
		Layer:           config.FromLayer(l),
		Budget:          o.MaxCandidates,
		MaxSplitsPerDim: o.MaxSplitsPerDim,
		Objective:       obj,
		BWUnaware:       !o.BWAware,
		Pow2Splits:      o.Pow2Splits,
		NoSym:           o.NoReduce,
		NoPrune:         o.NoPrune,
		TimeoutMS:       fo.TimeoutMS,
	}
	if req.Arch == "" && req.ArchConfig == nil {
		cfg := config.FromArch(a)
		req.ArchConfig = &cfg
	}
	return req, nil
}

// postShard sends one shard request to node and decodes the outcome.
func postShard(ctx context.Context, fo *Options, node string, body []byte) (*mapper.ShardOutcome, error) {
	url := strings.TrimRight(node, "/") + "/v1/shard"
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if fo.Tenant != "" {
		hreq.Header.Set("X-Tenant", fo.Tenant)
	}
	otrace.Inject(ctx, hreq.Header)
	client := fo.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("fabric: %s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var sr ShardResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&sr); err != nil {
		return nil, fmt.Errorf("fabric: %s: decode: %w", url, err)
	}
	return sr.Outcome()
}
