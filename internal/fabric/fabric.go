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
	"log/slog"
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
// merge); shard i takes lane coordTid+1+i.
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
	// Steals is never incremented: the fabric no longer steals work. It is
	// kept only because the ledger harness (bench/ledger) still reads it.
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

	// One goroutine per planned shard. The first failure cancels the
	// siblings: a dead shard makes the exact merge impossible, so finishing
	// the others is wasted work.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	f := &fanout{ctx: runCtx, l: l, a: a, o: &shardOpts, fo: fo, nodes: nodes, baseReq: baseReq}
	outs := make([]*mapper.ShardOutcome, len(plan.Specs))
	var (
		wg       sync.WaitGroup
		failOnce sync.Once
		firstErr error
	)
	for i, spec := range plan.Specs {
		end := plan.Total
		if i+1 < len(plan.Specs) {
			end = plan.Specs[i+1].WalkedBefore
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := f.run(shard{idx: i, spec: spec, end: end})
			if err != nil {
				failOnce.Do(func() {
					firstErr = err
					cancel()
				})
				return
			}
			outs[i] = out
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	_, mergeSp := otrace.StartSpan(ctx, "fabric.merge", otrace.CatMerge)
	mergeSp.SetTid(coordTid)
	mergeSp.SetAttr("outcomes", fmt.Sprintf("%d", len(outs)))
	cand, stats, err := mapper.MergeShards(l, a, mo, outs)
	mergeSp.End()
	return cand, stats, err
}

// fanout is the state every shard of one search shares.
type fanout struct {
	ctx     context.Context // canceled on the first shard failure
	l       *workload.Layer
	a       *arch.Arch
	o       *mapper.Options
	fo      *Options
	nodes   []string
	baseReq *ShardRequest
}

// shard is one planned spec: its plan index (node rotation, trace lane,
// error text) and the exclusive global visited position where its range
// ends (the next spec's WalkedBefore, or the plan total).
type shard struct {
	idx  int
	spec mapper.ShardSpec
	end  int64
}

// posKey names the shard's owned position range — the deterministic span
// key that keeps a shard's spans identical across goroutine interleavings.
func (s shard) posKey() string {
	return fmt.Sprintf("%d:%d", s.spec.WalkedBefore, s.end)
}

// run executes one shard: locally, or remotely starting at node
// idx%len(nodes) and failing over to the others in order, then locally
// unless NoLocalFallback is set.
func (f *fanout) run(s shard) (*mapper.ShardOutcome, error) {
	tid := coordTid + 1 + s.idx
	if len(f.nodes) == 0 {
		return f.walkLocal(s, tid)
	}
	req := *f.baseReq
	req.Shard = s.spec
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, fmt.Errorf("fabric: encode shard %d: %w", s.idx, err)
	}
	var lastErr error
	for attempt := 0; attempt < len(f.nodes); attempt++ {
		node := f.nodes[(s.idx+attempt)%len(f.nodes)]
		rctx, sp := otrace.StartSpanKeyed(f.ctx, "shard.rpc", otrace.CatRPC, node+"#"+s.posKey())
		sp.SetTid(tid)
		sp.SetAttr("node", node)
		sp.SetAttr("pos_lo", fmt.Sprintf("%d", s.spec.WalkedBefore))
		sp.SetAttr("pos_hi", fmt.Sprintf("%d", s.end))
		out, err := postShard(rctx, f.fo, node, body)
		if err == nil {
			sp.SetAttr("outcome", "ok")
			sp.End()
			return out, nil
		}
		sp.SetAttr("outcome", "error")
		sp.End()
		lastErr = err
		if f.ctx.Err() != nil {
			return nil, f.ctx.Err()
		}
		slog.Warn("fabric: shard node attempt failed",
			"shard", s.idx, "node", node, "err", err,
			"trace_id", otrace.IDString(f.ctx), "tenant", f.fo.Tenant)
	}
	if f.fo.NoLocalFallback {
		return nil, fmt.Errorf("fabric: shard %d failed on all %d node(s): %w", s.idx, len(f.nodes), lastErr)
	}
	slog.Warn("fabric: all nodes failed; falling back to local execution",
		"shard", s.idx, "nodes", len(f.nodes), "err", lastErr,
		"trace_id", otrace.IDString(f.ctx), "tenant", f.fo.Tenant)
	return f.walkLocal(s, tid)
}

// walkLocal walks the shard in-process, recording the walk window with the
// position-range attributes the span-invariant tests tile against the plan.
func (f *fanout) walkLocal(s shard, tid int) (*mapper.ShardOutcome, error) {
	wctx, sp := otrace.StartSpanKeyed(f.ctx, "shard.walk", otrace.CatWalk, s.posKey())
	sp.SetTid(tid)
	sp.SetAttr("pos_lo", fmt.Sprintf("%d", s.spec.WalkedBefore))
	sp.SetAttr("pos_hi", fmt.Sprintf("%d", s.end))
	out, err := mapper.BestShard(wctx, f.l, f.a, f.o, s.spec)
	if err != nil {
		sp.SetAttr("outcome", "error")
	}
	sp.End()
	return out, err
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
