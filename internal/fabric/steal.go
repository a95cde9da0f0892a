package fabric

// The executor pool and its deterministic work stealing. The plan's specs
// are a work queue; E executors drain it, and an executor that runs dry
// while siblings are still walking STEALS: it stops the running shard with
// the most estimated remaining work at its exact frontier (ShardControl
// locally, POST /v1/shard/steal remotely), and the victim's truncated
// outcome hands back a Resume spec that SplitShard re-plans into pieces for
// the idle executors. Every steal replaces one owned position range with
// ranges that tile it exactly, so the union of all outcomes stays disjoint
// and exhaustive and the merge is bit-identical for ANY steal schedule —
// including none. Only wall-clock changes.

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/mapper"
	"repro/internal/otrace"
	"repro/internal/workload"
)

// minStealVisits is the smallest estimated remainder worth stealing:
// below it the re-plan replay costs more than the imbalance, and a victim
// about to finish would just hand back empty pieces.
const minStealVisits = 256

// A steal POST can overtake the shard request it targets, reaching the node
// before the walk has registered its sid; the node then answers 404. While
// the victim is still in flight here, a 404 almost always means "not
// registered yet", so the POST is re-sent up to stealRetries times,
// stealRetryDelay apart, until it lands or the victim completes.
const (
	stealRetries    = 20
	stealRetryDelay = 5 * time.Millisecond
)

// workItem is one queued shard execution: the spec plus the exclusive
// global visited position where its range ends (the next spec's
// WalkedBefore, or the plan total), which prices the steal heuristic.
type workItem struct {
	spec mapper.ShardSpec
	end  int64
	idx  int       // originating plan shard, for node rotation and error text
	enq  time.Time // when the item entered the queue (admission-wait span)
}

// posKey names the item's owned position range — the deterministic span key
// that keeps a shard's spans identical across executor interleavings.
func (it workItem) posKey() string {
	return fmt.Sprintf("%d:%d", it.spec.WalkedBefore, it.end)
}

// runningShard is one in-flight execution the pool can steal from.
type runningShard struct {
	item workItem
	ctl  *mapper.ShardControl // local execution: the live truncation handle
	node string               // remote execution: node currently walking it
	sid  string               // remote execution: steal handle on that node
	// stolen marks a victim already asked to stop; it is never picked twice.
	stolen bool
}

// remaining estimates the victim's unwalked visits: against the live
// frontier locally, pessimistically against the range start remotely (the
// wire has no frontier feed, and an overestimate only biases WHICH victim
// is stopped — never the merged result).
func (r *runningShard) remaining() int64 {
	if r.ctl != nil {
		return r.item.end - r.ctl.Frontier()
	}
	return r.item.end - r.item.spec.WalkedBefore
}

// pool runs one sharded search over a bounded executor set.
type pool struct {
	l       *workload.Layer
	a       *arch.Arch
	o       *mapper.Options
	fo      *Options
	nodes   []string
	baseReq *ShardRequest
	ctx     context.Context
	cancel  context.CancelFunc

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []workItem
	running []*runningShard
	outs    []*mapper.ShardOutcome
	pending int // queued + running; 0 means the search is drained
	idle    int // executors blocked waiting for work
	err     error
	steals  int64
	sidSeq  int64
	sidBase string
}

func newPool(ctx context.Context, cancel context.CancelFunc, l *workload.Layer, a *arch.Arch, o *mapper.Options, fo *Options, nodes []string, baseReq *ShardRequest, plan *mapper.ShardPlan) *pool {
	p := &pool{l: l, a: a, o: o, fo: fo, nodes: nodes, baseReq: baseReq, ctx: ctx, cancel: cancel}
	p.cond = sync.NewCond(&p.mu)
	var buf [6]byte
	if _, err := rand.Read(buf[:]); err == nil {
		p.sidBase = hex.EncodeToString(buf[:])
	} else {
		p.sidBase = "shard"
	}
	now := time.Now()
	for i, sp := range plan.Specs {
		end := plan.Total
		if i+1 < len(plan.Specs) {
			end = plan.Specs[i+1].WalkedBefore
		}
		p.queue = append(p.queue, workItem{spec: sp, end: end, idx: i, enq: now})
	}
	p.pending = len(p.queue)
	return p
}

// executor is one worker loop: drain the queue; when it runs dry with work
// still in flight, nominate a steal victim and sleep until a completion
// refills the queue or ends the search.
func (p *pool) executor(tid int) {
	for {
		p.mu.Lock()
		for {
			if p.err != nil || p.pending == 0 || p.ctx.Err() != nil {
				p.mu.Unlock()
				return
			}
			if len(p.queue) > 0 {
				break
			}
			p.maybeStealLocked()
			p.idle++
			p.cond.Wait()
			p.idle--
		}
		it := p.queue[0]
		p.queue = p.queue[1:]
		r := &runningShard{item: it}
		if len(p.nodes) == 0 {
			r.ctl = mapper.NewShardControl(it.spec)
		} else {
			p.sidSeq++
			r.sid = fmt.Sprintf("%s-%d", p.sidBase, p.sidSeq)
		}
		p.running = append(p.running, r)
		p.mu.Unlock()
		otrace.RecordSpan(p.ctx, "queue.wait", otrace.CatQueue, it.posKey(),
			it.enq, time.Since(it.enq), otrace.Attr{K: "shard", V: fmt.Sprintf("%d", it.idx)})
		out, err := p.exec(r, tid)
		p.finish(r, out, err)
	}
}

// maybeStealLocked (mu held) nominates the running shard with the largest
// estimated remainder and asks it to stop. Local victims truncate at their
// published frontier; remote victims get a best-effort steal POST — if it
// is lost or late the victim simply completes whole and the stealer wakes
// on that completion instead, so no failure mode can stall the pool.
func (p *pool) maybeStealLocked() {
	if p.fo.NoSteal {
		return
	}
	var best *runningShard
	var bestRem int64
	for _, r := range p.running {
		if r.stolen || (r.ctl == nil && r.node == "") {
			continue
		}
		rem := r.remaining()
		if rem < minStealVisits {
			continue
		}
		if best == nil || rem > bestRem {
			best, bestRem = r, rem
		}
	}
	if best == nil {
		return
	}
	best.stolen = true
	if best.ctl != nil {
		_, sp := otrace.StartSpanKeyed(p.ctx, "steal.truncate", otrace.CatSteal, best.item.posKey())
		best.ctl.Truncate(best.ctl.Frontier())
		sp.SetAttr("victim", best.item.posKey())
		sp.End()
		return
	}
	go p.postSteal(best, best.node)
}

// inFlight reports whether r is still running (not yet booked by finish).
func (p *pool) inFlight(r *runningShard) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, rr := range p.running {
		if rr == r {
			return true
		}
	}
	return false
}

// postSteal fires the remote stop request for victim r on node. Best
// effort by design: any error just means the victim finishes its whole
// range. A 404 is retried while r is in flight (see stealRetries).
func (p *pool) postSteal(r *runningShard, node string) {
	body, err := json.Marshal(&StealRequest{Sid: r.sid})
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(p.ctx, 10*time.Second)
	defer cancel()
	victim := r.item.posKey()
	sctx, sp := otrace.StartSpanKeyed(ctx, "steal.rpc", otrace.CatSteal, node+"#"+victim)
	sp.SetAttr("node", node)
	sp.SetAttr("victim", victim)
	defer sp.End()
	url := strings.TrimRight(node, "/") + "/v1/shard/steal"
	client := p.fo.Client
	if client == nil {
		client = http.DefaultClient
	}
	for attempt := 0; ; attempt++ {
		hreq, err := http.NewRequestWithContext(sctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return
		}
		hreq.Header.Set("Content-Type", "application/json")
		if p.fo.Tenant != "" {
			hreq.Header.Set("X-Tenant", p.fo.Tenant)
		}
		otrace.Inject(sctx, hreq.Header)
		resp, err := client.Do(hreq)
		if err != nil {
			sp.SetAttr("outcome", "error")
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		sp.SetAttr("outcome", resp.Status)
		if resp.StatusCode != http.StatusNotFound || attempt == stealRetries || !p.inFlight(r) {
			return
		}
		t := time.NewTimer(stealRetryDelay)
		select {
		case <-t.C:
		case <-sctx.Done():
			t.Stop()
			return
		}
	}
}

// exec runs one work item: locally under its ShardControl, or remotely with
// node rotation and failover exactly like the pre-steal fabric. The local
// fallback after total remote failure gets a fresh control so the pool can
// still steal from it.
func (p *pool) exec(r *runningShard, tid int) (*mapper.ShardOutcome, error) {
	if r.ctl != nil {
		return p.execLocal(r, tid)
	}
	req := *p.baseReq
	req.Shard = r.item.spec
	req.Sid = r.sid
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, fmt.Errorf("fabric: encode shard %d: %w", r.item.idx, err)
	}
	var lastErr error
	for attempt := 0; attempt < len(p.nodes); attempt++ {
		node := p.nodes[(r.item.idx+attempt)%len(p.nodes)]
		p.mu.Lock()
		r.node = node
		// An executor that ran dry while r was not yet dispatched skipped
		// it as a victim; wake it so it can reconsider.
		p.cond.Broadcast()
		p.mu.Unlock()
		rctx, sp := otrace.StartSpanKeyed(p.ctx, "shard.rpc", otrace.CatRPC, node+"#"+r.item.posKey())
		sp.SetTid(tid)
		sp.SetAttr("node", node)
		sp.SetAttr("pos_lo", fmt.Sprintf("%d", r.item.spec.WalkedBefore))
		sp.SetAttr("pos_hi", fmt.Sprintf("%d", r.item.end))
		out, err := postShard(rctx, p.fo, node, body)
		if err == nil {
			sp.SetAttr("outcome", "ok")
			sp.End()
			return out, nil
		}
		sp.SetAttr("outcome", "error")
		sp.End()
		lastErr = err
		if p.ctx.Err() != nil {
			return nil, p.ctx.Err()
		}
		slog.Warn("fabric: shard node attempt failed",
			"shard", r.item.idx, "node", node, "err", err,
			"trace_id", otrace.IDString(p.ctx), "tenant", p.fo.Tenant)
	}
	if !p.fo.NoLocalFallback {
		slog.Warn("fabric: all nodes failed; falling back to local execution",
			"shard", r.item.idx, "nodes", len(p.nodes), "err", lastErr,
			"trace_id", otrace.IDString(p.ctx), "tenant", p.fo.Tenant)
		ctl := mapper.NewShardControl(r.item.spec)
		p.mu.Lock()
		r.node = ""
		r.ctl = ctl
		p.mu.Unlock()
		return p.execLocal(r, tid)
	}
	return nil, fmt.Errorf("fabric: shard %d failed on all %d node(s): %w", r.item.idx, len(p.nodes), lastErr)
}

// execLocal walks the shard in-process under its ShardControl, recording
// the walk window with the position-range attributes the span-invariant
// tests tile against the plan: [pos_lo, pos_done) is exactly what this
// execution walked (pos_done < pos_hi when a steal truncated it — the
// re-queued pieces own the rest).
func (p *pool) execLocal(r *runningShard, tid int) (*mapper.ShardOutcome, error) {
	wctx, sp := otrace.StartSpanKeyed(p.ctx, "shard.walk", otrace.CatWalk, r.item.posKey())
	sp.SetTid(tid)
	sp.SetAttr("pos_lo", fmt.Sprintf("%d", r.item.spec.WalkedBefore))
	sp.SetAttr("pos_hi", fmt.Sprintf("%d", r.item.end))
	out, err := mapper.BestShardControlled(wctx, p.l, p.a, p.o, r.item.spec, r.ctl)
	done := r.item.end
	if err == nil && out.Truncated {
		done = out.Resume.WalkedBefore
		sp.SetAttr("truncated", "true")
	}
	if err == nil {
		sp.SetAttr("pos_done", fmt.Sprintf("%d", done))
	} else {
		sp.SetAttr("outcome", "error")
	}
	sp.End()
	return out, err
}

// finish books one completed execution. A truncated outcome is a landed
// steal: the Resume remainder is re-planned into one piece per waiting
// executor (plus one for this, now free, executor) and re-queued; the
// pieces tile the remainder exactly, so ownership stays disjoint and
// exhaustive.
func (p *pool) finish(r *runningShard, out *mapper.ShardOutcome, err error) {
	var pieces []mapper.ShardSpec
	if err == nil && out.Truncated {
		p.mu.Lock()
		parts := p.idle + 1
		p.mu.Unlock()
		if parts < 2 {
			parts = 2
		}
		_, sp := otrace.StartSpanKeyed(p.ctx, "steal.split", otrace.CatSteal, r.item.posKey())
		pieces, err = mapper.SplitShard(p.ctx, p.l, p.a, p.o, out.Resume, parts)
		sp.SetAttr("pieces", fmt.Sprintf("%d", len(pieces)))
		sp.End()
		slog.Debug("fabric: steal landed",
			"victim", r.item.posKey(), "pieces", len(pieces),
			"trace_id", otrace.IDString(p.ctx), "tenant", p.fo.Tenant)
	}
	p.mu.Lock()
	defer func() {
		p.cond.Broadcast()
		p.mu.Unlock()
	}()
	for i, rr := range p.running {
		if rr == r {
			p.running = append(p.running[:i], p.running[i+1:]...)
			break
		}
	}
	if err != nil {
		if p.err == nil {
			p.err = err
		}
		p.cancel()
		return
	}
	p.outs = append(p.outs, out)
	if out.Truncated {
		p.steals++
		now := time.Now()
		for i, sp := range pieces {
			end := r.item.end
			if i+1 < len(pieces) {
				end = pieces[i+1].WalkedBefore
			}
			p.queue = append(p.queue, workItem{spec: sp, end: end, idx: r.item.idx, enq: now})
			p.pending++
		}
	}
	p.pending--
}
