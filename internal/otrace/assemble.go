package otrace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Span categories the critical-path report recognises. Everything the
// fabric path records carries one of these (the coordinator/serve roots
// carry "fabric"/"serve", which the sweep ignores — they are containers,
// not work).
const (
	CatPlan  = "plan"  // fabric.PlanShards
	CatQueue = "queue" // node admission queue wait
	CatWalk  = "walk"  // shard walk window
	// CatSteal is emitted by nothing since the fabric stopped stealing work;
	// it stays only because the ledger harness (bench/ledger) still reads
	// Report.StealNS.
	CatSteal = "steal"
	CatMemo  = "memo"  // memo.Store get/put
	CatRPC   = "rpc"   // coordinator-side remote shard call (whole RTT)
	CatMerge = "merge" // fabric.MergeShards
)

// sweep precedence, most specific first: when several categorised spans
// overlap an instant of coordinator wall time, the instant goes to the
// first of these that is active. RPC last: an RPC span only wins instants
// where the coordinator is doing nothing but waiting on the wire, and that
// time is then re-split into remote queue/walk/network by remote-measured
// durations.
var sweepOrder = []string{CatMerge, CatPlan, CatMemo, CatQueue, CatSteal, CatWalk, CatRPC}

// Report is the critical-path attribution: every nanosecond of the
// coordinator root span's duration lands in exactly one bucket, so
// Plan+Queue+Walk+Memo+Network+Merge+Other == Wall (DiffNS is kept
// only as a tripwire; it is zero by construction).
type Report struct {
	TraceID string `json:"trace_id"`
	WallNS  int64  `json:"wall_ns"`
	PlanNS  int64  `json:"plan_ns"`
	QueueNS int64  `json:"queue_ns"`
	WalkNS  int64  `json:"walk_ns"`
	// StealNS is always 0 (see CatSteal); kept for the ledger harness.
	StealNS   int64    `json:"steal_ns"`
	MemoNS    int64    `json:"memo_ns"`
	NetworkNS int64    `json:"network_ns"`
	MergeNS   int64    `json:"merge_ns"`
	OtherNS   int64    `json:"other_ns"`
	SumNS     int64    `json:"sum_ns"`
	DiffNS    int64    `json:"diff_ns"`
	Spans     int      `json:"spans"`
	Dropped   int      `json:"dropped,omitempty"`
	Nodes     []string `json:"nodes"`
}

// Format renders the report as the human table latmodel prints to stderr.
func (rep Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path, trace %s (%d spans, %d nodes)\n", rep.TraceID, rep.Spans, len(rep.Nodes))
	row := func(name string, ns int64) {
		pct := 0.0
		if rep.WallNS > 0 {
			pct = 100 * float64(ns) / float64(rep.WallNS)
		}
		fmt.Fprintf(&b, "  %-10s %12.3f ms  %5.1f%%\n", name, float64(ns)/1e6, pct)
	}
	row("plan", rep.PlanNS)
	row("queue", rep.QueueNS)
	row("walk", rep.WalkNS)
	row("memo", rep.MemoNS)
	row("network", rep.NetworkNS)
	row("merge", rep.MergeNS)
	row("other", rep.OtherNS)
	fmt.Fprintf(&b, "  %-10s %12.3f ms  (wall %0.3f ms, diff %d ns)\n",
		"sum", float64(rep.SumNS)/1e6, float64(rep.WallNS)/1e6, rep.DiffNS)
	return b.String()
}

// Assembled is the merged cross-node view of one trace.
type Assembled struct {
	TraceID string
	Events  []obs.TraceEvent
	Report  Report
}

// JSON renders the Chrome trace object format — the traceEvents array
// Perfetto loads, with the critical-path report carried as an extra
// top-level key (the object format permits unknown keys).
func (a *Assembled) JSON() ([]byte, error) {
	return json.MarshalIndent(struct {
		TraceEvents  []obs.TraceEvent `json:"traceEvents"`
		CriticalPath Report           `json:"critical_path"`
	}{a.Events, a.Report}, "", " ")
}

// interval is one categorised window on the coordinator clock, ns relative
// to the root start.
type interval struct {
	lo, hi int64
	cat    string
}

// Assemble merges per-node wire traces into one Perfetto timeline and the
// critical-path report. coordinator names the node whose parentless span is
// the wall-time root; remote node clocks are aligned for display by
// centring each node's earliest RPC-child root inside its coordinator RPC
// span (only durations — never cross-node timestamps — feed the report, so
// clock skew cannot corrupt attribution).
func Assemble(coordinator string, traces []WireTrace) (*Assembled, error) {
	var all []WireSpan
	var traceID string
	dropped := 0
	for _, t := range traces {
		if traceID == "" {
			traceID = t.TraceID
		} else if t.TraceID != traceID {
			return nil, fmt.Errorf("otrace: mixed traces %s and %s", traceID, t.TraceID)
		}
		dropped += t.Dropped
		all = append(all, t.Spans...)
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("otrace: no spans for trace %s", traceID)
	}

	// Root: the parentless coordinator span (longest wins if several).
	var root *WireSpan
	for i := range all {
		s := &all[i]
		if s.Node == coordinator && s.Parent == "" {
			if root == nil || s.DurNS > root.DurNS {
				root = s
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("otrace: no root span on coordinator %q", coordinator)
	}

	rep := criticalPath(coordinator, root, all)
	rep.TraceID = traceID
	rep.Dropped = dropped
	rep.Spans = len(all)
	nodeSet := map[string]bool{}
	for _, s := range all {
		nodeSet[s.Node] = true
	}
	for n := range nodeSet {
		rep.Nodes = append(rep.Nodes, n)
	}
	sort.Strings(rep.Nodes)

	events := perfetto(coordinator, root, rep.Nodes, all)
	return &Assembled{TraceID: traceID, Events: events, Report: rep}, nil
}

// criticalPath runs the precedence sweep over coordinator spans and splits
// the RPC bucket by remote durations.
func criticalPath(coordinator string, root *WireSpan, all []WireSpan) Report {
	wall := root.DurNS
	rep := Report{WallNS: wall}
	if wall <= 0 {
		return rep
	}
	t0 := root.StartNS

	// Categorised coordinator intervals, clipped to the root window.
	var ivs []interval
	rpcIDs := map[string]bool{}
	for i := range all {
		s := &all[i]
		if s.Node != coordinator || s.ID == root.ID {
			continue
		}
		known := false
		for _, c := range sweepOrder {
			if s.Cat == c {
				known = true
				break
			}
		}
		if !known {
			continue
		}
		lo, hi := s.StartNS-t0, s.StartNS-t0+s.DurNS
		if lo < 0 {
			lo = 0
		}
		if hi > wall {
			hi = wall
		}
		if s.Cat == CatRPC {
			rpcIDs[s.ID] = true
		}
		if hi <= lo {
			continue
		}
		ivs = append(ivs, interval{lo: lo, hi: hi, cat: s.Cat})
	}

	// Elementary-segment sweep: at each segment the highest-precedence
	// active category wins; gaps are "other". Every ns of [0, wall) is
	// assigned exactly once, so the identity holds by construction.
	catIdx := map[string]int{}
	for i, c := range sweepOrder {
		catIdx[c] = i
	}
	type edge struct {
		at    int64
		cat   int
		delta int
	}
	edges := make([]edge, 0, 2*len(ivs))
	for _, iv := range ivs {
		ci := catIdx[iv.cat]
		edges = append(edges, edge{at: iv.lo, cat: ci, delta: 1}, edge{at: iv.hi, cat: ci, delta: -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	got := map[string]int64{}
	active := make([]int, len(sweepOrder))
	cursor := int64(0)
	account := func(upto int64) {
		if upto <= cursor {
			return
		}
		cat := "other"
		for i, c := range sweepOrder {
			if active[i] > 0 {
				cat = c
				break
			}
		}
		got[cat] += upto - cursor
		cursor = upto
	}
	for _, e := range edges {
		account(e.at)
		active[e.cat] += e.delta
	}
	account(wall)

	// Split pure-RPC time into remote queue/walk + network RTT using
	// skew-free remote durations: for each RPC span's remote subtree,
	// sum handler duration d, queue-wait q, walk w; the RPC-won time
	// splits proportionally, network taking the exact remainder.
	var sumD, sumQ, sumW int64
	children := map[string][]*WireSpan{}
	for i := range all {
		s := &all[i]
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range all {
		s := &all[i]
		if s.Node == coordinator || !rpcIDs[s.Parent] {
			continue
		}
		// s is a remote root under a coordinator RPC span.
		sumD += s.DurNS
		stack := []*WireSpan{s}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			switch cur.Cat {
			case CatQueue:
				sumQ += cur.DurNS
			case CatWalk:
				sumW += cur.DurNS
			}
			stack = append(stack, children[cur.ID]...)
		}
	}
	tRPC := got[CatRPC]
	var walkAdd, queueAdd int64
	if tRPC > 0 && sumD > 0 {
		walkAdd = int64(float64(tRPC) * float64(sumW) / float64(sumD))
		queueAdd = int64(float64(tRPC) * float64(sumQ) / float64(sumD))
		if walkAdd > tRPC {
			walkAdd = tRPC
		}
		if walkAdd+queueAdd > tRPC {
			queueAdd = tRPC - walkAdd
		}
	}
	netAdd := tRPC - walkAdd - queueAdd // exact remainder: identity preserved

	rep.PlanNS = got[CatPlan]
	rep.QueueNS = got[CatQueue] + queueAdd
	rep.WalkNS = got[CatWalk] + walkAdd
	rep.StealNS = got[CatSteal]
	rep.MemoNS = got[CatMemo]
	rep.NetworkNS = netAdd
	rep.MergeNS = got[CatMerge]
	rep.OtherNS = got["other"]
	rep.SumNS = rep.PlanNS + rep.QueueNS + rep.WalkNS + rep.StealNS +
		rep.MemoNS + rep.NetworkNS + rep.MergeNS + rep.OtherNS
	rep.DiffNS = rep.SumNS - rep.WallNS
	return rep
}

// perfetto renders the spans as Chrome trace events: one pid per node
// (coordinator first), tids as recorded (shard lanes), ts in
// microseconds relative to the root start. Remote clocks are aligned by
// centring each node's earliest RPC-child root inside its RPC span.
func perfetto(coordinator string, root *WireSpan, nodes []string, all []WireSpan) []obs.TraceEvent {
	pidOf := map[string]int{coordinator: 1}
	next := 2
	for _, n := range nodes {
		if _, ok := pidOf[n]; !ok {
			pidOf[n] = next
			next++
		}
	}

	// Per-node display offset (added to StartNS). Coordinator: -t0.
	t0 := root.StartNS
	offset := map[string]int64{coordinator: -t0}
	spanByID := map[string]*WireSpan{}
	for i := range all {
		spanByID[all[i].ID] = &all[i]
	}
	for i := range all {
		s := &all[i]
		if _, ok := offset[s.Node]; ok {
			continue
		}
		if s.Parent == "" {
			continue
		}
		p, ok := spanByID[s.Parent]
		if !ok || p.Node == s.Node || p.Cat != CatRPC {
			continue
		}
		// Centre the remote root inside its RPC span.
		mid := p.StartNS - t0 + (p.DurNS-s.DurNS)/2
		offset[s.Node] = mid - s.StartNS
	}
	for _, n := range nodes {
		if _, ok := offset[n]; !ok {
			offset[n] = -t0 // same-host fallback: share the coordinator clock
		}
	}

	var events []obs.TraceEvent
	meta := func(pid, tid int, what, name string) {
		events = append(events, obs.TraceEvent{
			Name: what, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	tids := map[[2]int]bool{}
	for _, n := range nodes {
		meta(pidOf[n], 0, "process_name", "node "+n)
	}
	for i := range all {
		s := &all[i]
		pid := pidOf[s.Node]
		tid := s.Tid
		if tid <= 0 {
			tid = 1
		}
		tids[[2]int{pid, tid}] = true
		var args map[string]any
		if len(s.Attrs) > 0 {
			args = make(map[string]any, len(s.Attrs)+1)
			for k, v := range s.Attrs {
				args[k] = v
			}
			args["span_id"] = s.ID
		} else {
			args = map[string]any{"span_id": s.ID}
		}
		events = append(events, obs.TraceEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.StartNS+offset[s.Node]) / 1e3,
			Dur: float64(s.DurNS) / 1e3,
			Pid: pid, Tid: tid, Cat: s.Cat, Args: args,
		})
	}
	for key := range tids {
		name := "lane"
		if key[1] > 1 {
			name = fmt.Sprintf("shard %d", key[1]-2)
		}
		meta(key[0], key[1], "thread_name", name)
	}
	sort.SliceStable(events, func(i, j int) bool {
		mi, mj := events[i].Ph == "M", events[j].Ph == "M"
		if mi != mj {
			return mi
		}
		if mi {
			if events[i].Pid != events[j].Pid {
				return events[i].Pid < events[j].Pid
			}
			return events[i].Tid < events[j].Tid
		}
		return events[i].Ts < events[j].Ts
	})
	return events
}
