package mapper

// Deterministic sharding of one Best search (DESIGN.md §13-§14). The
// canonical walk is a depth-first product over per-dimension split
// alternatives; fix a split depth D and every ordering the walk visits
// belongs to exactly one depth-D PREFIX — the choice of split alternative
// for the first D dimensions, indexed positionally over the full cartesian
// product (prefixStrides). Within one prefix the visited orderings are
// themselves positionally indexed by visit order (loops.RankOrdering gives
// the index inside a single multiset), so a walk position is the pair
// (prefix, permIndex) and a shard boundary can sit in the middle of a
// multiset. A shard owns the contiguous position range
// [(Lo, PermLo), (Hi, PermHi)) plus the exact walk state the whole-space
// walk would carry into its first owned position, handed over by the
// planner's arithmetic replay. Because the walk geometry, the probe bound,
// the class signatures and the boundary assignment are all pure functions of
// (layer, arch, options), a shard re-derives everything else locally — on
// this machine or on a servemodel node across the network — and the union of
// the shards' emissions is EXACTLY the whole-space emission stream, seq for
// seq.
//
// The merge re-reduces the shard winners under the same (score, seq) order
// the engine's reducer uses and reconciles the per-shard equivalence-class
// records by signature (a class straddling shards is re-emitted by each, so
// distinct signatures — not per-shard counts — define NestsGenerated), which
// makes Best and every exact Stats counter bit-identical to the single-shard
// search for any K, any shard→node placement and any worker count.

import (
	"context"
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/loops"
	"repro/internal/workload"
)

// shardFanout is how many prefixes per requested shard the planner wants at
// minimum: enough index resolution that most boundaries land between
// prefixes and sub-multiset offsets stay the exception.
const shardFanout = 8

// maxPrefixes bounds the planner's per-prefix weight arrays: the full
// cartesian product of split alternatives can be astronomically larger than
// the reachable walk, so metering is only attempted over ranges this size or
// smaller. Boundary refinement sidesteps the bound by re-metering one
// prefix's children at a time.
const maxPrefixes = 1 << 20

// ShardSpec pins one shard of a search: the split depth, the owned walk
// position range and the walk state at its entry. Specs only make sense
// against the exact (layer, arch, normalized options) they were planned for.
type ShardSpec struct {
	// Depth is the split depth: a prefix assigns one split alternative to
	// each of the first Depth dimensions of the canonical walk order.
	Depth int `json:"depth"`
	// Lo, Hi delimit the owned position range [(Lo, PermLo), (Hi, PermHi)):
	// the visited orderings of prefix Lo from position PermLo on, prefixes
	// (Lo, Hi) whole, and — when PermHi > 0 — the first PermHi visited
	// orderings of prefix Hi. PermLo/PermHi index the orderings the
	// whole-space walk VISITS inside a prefix, in visit order; with both
	// zero the spec is the plain prefix range [Lo, Hi).
	Lo     int64 `json:"lo"`
	Hi     int64 `json:"hi"`
	PermLo int64 `json:"perm_lo,omitempty"`
	PermHi int64 `json:"perm_hi,omitempty"`
	// WalkedBefore is the exact number of orderings the whole-space walk
	// visits before position (Lo, PermLo): the shard starts its walk counter
	// there, so every emitted seq and the MaxCandidates cap stay globally
	// consistent.
	WalkedBefore int64 `json:"walked_before"`
	// CappedBefore records whether the walk budget tripped strictly before
	// position (Lo, PermLo) (pruning stops once capped, so the flag must
	// carry over). A boundary with PermLo > 0 sits at a visited position, so
	// it always has CappedBefore == false.
	CappedBefore bool `json:"capped_before,omitempty"`
}

// ShardClass records one equivalence-class representative a shard emitted:
// the class signature, the representative's global walk seq, and whether it
// validated. The merge keeps the record with the smallest seq per signature
// — the whole-space representative — so classes straddling shards collapse
// exactly.
type ShardClass struct {
	Sig   []byte `json:"sig"`
	Seq   int64  `json:"seq"`
	Valid bool   `json:"valid,omitempty"`
}

// ShardOutcome is everything a shard reports back: its winning temporal nest
// (found == false when the range held no valid mapping), the winner's walk
// seq for the global tie-break, the shard-local statistics and the class
// records. The winner crosses machine boundaries as a nest, not a score:
// the merge re-materializes it through the deterministic evaluate path, so
// wire encodings can never perturb the comparison.
type ShardOutcome struct {
	Found    bool
	Temporal loops.Nest
	Seq      int64
	Stats    Stats
	Classes  []ShardClass

	// Spec echoes the executed spec and OptFP the options fingerprint
	// (SearchFingerprint) the shard normalized to, so a merge-time mismatch
	// names the misconfigured shard instead of guessing.
	Spec  ShardSpec
	OptFP uint64
}

// ShardPlan is the planner's output: K specs covering the full walk exactly,
// in ascending position order.
type ShardPlan struct {
	Depth    int
	Prefixes int64
	// Total is the exact number of orderings the whole walk visits (budget
	// cap included), i.e. the exclusive end position of the last spec.
	Total int64
	Specs []ShardSpec
}

// shardRun is the engine-side shard state: the spec restricting the walk,
// or — for the planner — simulate+weightf replaying the walk
// arithmetically. The engine epilogue fills classes and bestSeq.
type shardRun struct {
	spec     ShardSpec
	simulate bool
	// weightf observes each reached depth-D prefix in walk order: its index,
	// the orderings visited under it and the cap flag after it. Prefixes
	// inside subtrees pruned above depth D are never reported (weight 0).
	weightf func(prefix int64, visited int, capped bool)
	classes []ShardClass
	bestSeq int64
}

// meterRange replays the walk arithmetically over the depth-`depth` prefix
// range [lo, hi), entering with the exact whole-space walk state
// (walkedBefore, cappedBefore), and returns the per-prefix visited counts
// and after-prefix cap flags. No orderings are scored.
func meterRange(ctx context.Context, l *workload.Layer, a *arch.Arch, o *Options, depth int, lo, hi, walkedBefore int64, cappedBefore bool) ([]int64, []bool, error) {
	n := hi - lo
	if n > maxPrefixes {
		return nil, nil, fmt.Errorf("mapper: metering %d prefixes exceeds the %d planner bound", n, maxPrefixes)
	}
	weights := make([]int64, n)
	capAfter := make([]bool, n)
	lastIdx := int64(-1)
	lastCapped := cappedBefore
	sh := &shardRun{
		spec:     ShardSpec{Depth: depth, Lo: lo, Hi: hi, WalkedBefore: walkedBefore, CappedBefore: cappedBefore},
		simulate: true,
	}
	sh.weightf = func(p int64, visited int, capped bool) {
		i := p - lo
		for q := lastIdx + 1; q < i; q++ {
			capAfter[q] = lastCapped
		}
		weights[i] = int64(visited)
		capAfter[i] = capped
		lastIdx, lastCapped = i, capped
	}
	e := &engine{ctx: ctx, l: l, a: a, o: o, mode: modeBest, shard: sh}
	e.genPrune = o.Objective == MinLatency
	var st Stats
	e.generate(&st, func(int64, loops.Nest) {})
	if e.aborted.Load() || ctx.Err() != nil {
		return nil, nil, ctx.Err()
	}
	for q := lastIdx + 1; q < n; q++ {
		capAfter[q] = lastCapped
	}
	return weights, capAfter, nil
}

// planSeg is one contiguous piece of the walk during planning: a single
// depth-`depth` prefix with its exact visited count and the cap flag after
// it. Segments at different depths tile the walk together; refining one
// replaces it by its children one dimension deeper without touching — or
// re-metering — any other segment.
type planSeg struct {
	depth    int
	prefix   int64
	w        int64
	capAfter bool
}

// PlanShards partitions the search for (l, a, opt) into k contiguous shards.
// Boundaries are placed at exact visited-count targets i*total/k: when a
// target falls between prefixes the boundary is the classic prefix edge, and
// when it falls inside one — a multiset holding a large share of the budget,
// the case no prefix partition can balance — the planner refines its index
// one dimension at a time and finally issues a sub-multiset offset
// (PermLo/PermHi), so the worst chunk never exceeds ceil(total/k) visited
// orderings. The plan is produced by one arithmetic replay at a coarse depth
// plus a replay of each refined prefix's children — segments not being split
// reuse their parent's metered weight — and is a pure function of its
// inputs, so coordinator and shards never disagree about the geometry. ctx
// cancels the replays.
func PlanShards(ctx context.Context, l *workload.Layer, a *arch.Arch, opt *Options, k int) (*ShardPlan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if k < 1 {
		k = 1
	}
	o := opt.normalized()
	if err := checkSearch(l, &o); err != nil {
		return nil, err
	}
	_, dimSplits := walkSpace(l, &o)
	cdim := make([]int64, loops.NumDims)
	for d := range cdim {
		cdim[d] = int64(len(dimSplits[loops.AllDims[d]]))
	}

	// Choose the smallest metering depth whose full prefix count gives the
	// partition room to put most boundaries between prefixes
	// (>= k*shardFanout), capped at the dimension count and the metering
	// bound.
	depth := 1
	prefixes := cdim[0]
	for depth < loops.NumDims && prefixes < int64(k)*shardFanout && prefixes*cdim[depth] <= maxPrefixes {
		prefixes *= cdim[depth]
		depth++
	}

	weights, capAfter, err := meterRange(ctx, l, a, &o, depth, 0, prefixes, 0, false)
	if err != nil {
		return nil, err
	}
	segs := make([]planSeg, prefixes)
	var total int64
	for p := int64(0); p < prefixes; p++ {
		segs[p] = planSeg{depth: depth, prefix: p, w: weights[p], capAfter: capAfter[p]}
		total += weights[p]
	}

	// Boundary targets: exact k-quantiles of the visited count (the rounding
	// matches the pre-sub-split planner's greedy targets).
	tgts := make([]int64, k+1)
	for i := 0; i <= k; i++ {
		tgts[i] = (total*int64(i) + int64(k)/2) / int64(k)
	}

	// Refine every segment a target falls strictly inside, one dimension at
	// a time, until each target sits at a segment edge or inside a prefix
	// with no dimensions left to split — the sub-multiset case. Only the
	// children of refined segments are ever re-metered; every other segment
	// keeps its weight from the coarser replay.
	for {
		type refineTask struct {
			idx       int
			cumBefore int64
			capBefore bool
		}
		var tasks []refineTask
		cum := int64(0)
		capBefore := false
		ti := 1
		for idx := range segs {
			s := &segs[idx]
			for ti < k && tgts[ti] <= cum {
				ti++
			}
			if ti < k && tgts[ti] < cum+s.w && s.depth < loops.NumDims {
				tasks = append(tasks, refineTask{idx, cum, capBefore})
			}
			cum += s.w
			capBefore = s.capAfter
		}
		if len(tasks) == 0 {
			break
		}
		// Splice children in from the back so earlier task indices stay
		// valid.
		for t := len(tasks) - 1; t >= 0; t-- {
			task := tasks[t]
			s := segs[task.idx]
			c := cdim[s.depth]
			clo, chi := s.prefix*c, (s.prefix+1)*c
			cw, ccap, err := meterRange(ctx, l, a, &o, s.depth+1, clo, chi, task.cumBefore, task.capBefore)
			if err != nil {
				return nil, err
			}
			children := make([]planSeg, c)
			var sum int64
			for j := int64(0); j < c; j++ {
				children[j] = planSeg{depth: s.depth + 1, prefix: clo + j, w: cw[j], capAfter: ccap[j]}
				sum += cw[j]
			}
			if sum != s.w {
				return nil, fmt.Errorf("mapper: planner replay diverged refining prefix %d at depth %d: children sum %d, parent %d", s.prefix, s.depth, sum, s.w)
			}
			segs = append(segs[:task.idx], append(children, segs[task.idx+1:]...)...)
		}
	}

	// The plan's depth is the deepest any segment reached; coarser segments
	// scale their prefix index up by the intervening split-alternative
	// counts.
	planDepth := depth
	for _, s := range segs {
		if s.depth > planDepth {
			planDepth = s.depth
		}
	}
	scale := make([]int64, planDepth+1)
	scale[planDepth] = 1
	for d := planDepth - 1; d >= 0; d-- {
		scale[d] = scale[d+1] * cdim[d]
	}
	planPrefixes := prefixes * scale[depth]

	type boundary struct {
		prefix, perm, walked int64
		capped               bool
	}
	bnds := make([]boundary, k+1)
	cum := int64(0)
	capBefore := false
	ti := 1
	for _, s := range segs {
		base := s.prefix * scale[s.depth]
		for ti < k && tgts[ti] <= cum {
			bnds[ti] = boundary{prefix: base, walked: cum, capped: capBefore}
			ti++
		}
		for ti < k && tgts[ti] < cum+s.w {
			// Strictly inside: refinement guarantees the segment is a single
			// full-depth prefix, so the target is a sub-multiset offset.
			bnds[ti] = boundary{prefix: base, perm: tgts[ti] - cum, walked: tgts[ti]}
			ti++
		}
		cum += s.w
		capBefore = s.capAfter
	}
	for ; ti < k; ti++ {
		bnds[ti] = boundary{prefix: planPrefixes, walked: cum, capped: capBefore}
	}
	bnds[k] = boundary{prefix: planPrefixes}

	plan := &ShardPlan{Depth: planDepth, Prefixes: planPrefixes, Total: total, Specs: make([]ShardSpec, k)}
	for i := 0; i < k; i++ {
		b, e := bnds[i], bnds[i+1]
		plan.Specs[i] = ShardSpec{
			Depth: planDepth,
			Lo:    b.prefix, PermLo: b.perm,
			Hi: e.prefix, PermHi: e.perm,
			WalkedBefore: b.walked, CappedBefore: b.capped,
		}
	}
	return plan, nil
}

// validateSpec rejects geometrically impossible shard specs.
func validateSpec(spec ShardSpec) error {
	if spec.Depth < 1 || spec.Depth > loops.NumDims {
		return fmt.Errorf("mapper: shard depth %d out of range [1, %d]", spec.Depth, loops.NumDims)
	}
	if spec.Lo < 0 || spec.Hi < spec.Lo || spec.WalkedBefore < 0 || spec.PermLo < 0 || spec.PermHi < 0 {
		return fmt.Errorf("mapper: malformed shard range [%d+%d, %d+%d) walked %d", spec.Lo, spec.PermLo, spec.Hi, spec.PermHi, spec.WalkedBefore)
	}
	if spec.Lo == spec.Hi && spec.PermHi > 0 && spec.PermHi < spec.PermLo {
		return fmt.Errorf("mapper: inverted sub-multiset range [%d+%d, %d+%d)", spec.Lo, spec.PermLo, spec.Hi, spec.PermHi)
	}
	if spec.WalkedBefore < spec.PermLo {
		return fmt.Errorf("mapper: shard at position (%d, %d) cannot have walked only %d", spec.Lo, spec.PermLo, spec.WalkedBefore)
	}
	if spec.PermLo > 0 && spec.CappedBefore {
		return fmt.Errorf("mapper: sub-multiset boundary (%d, %d) cannot be capped-before (it is a visited position)", spec.Lo, spec.PermLo)
	}
	return nil
}

// SearchFingerprint is a stable hash of the normalized search inputs
// (layer, arch, spatial nest and every option the walk geometry depends
// on). Shards echo it in their outcomes so a fleet misconfiguration — two
// nodes normalizing different options into "the same" plan — is named
// precisely at merge time instead of surfacing as a failed re-evaluation.
func SearchFingerprint(l *workload.Layer, a *arch.Arch, opt *Options) uint64 {
	o := opt.normalized()
	return bestKey(l, a, &o).Hash
}

// BestShard runs the modeBest search restricted to spec's position range and
// returns the shard's outcome. Options must match the plan's exactly
// (normalization is applied identically); Hooks, if any, observe only this
// shard's slice of the walk.
func BestShard(ctx context.Context, l *workload.Layer, a *arch.Arch, opt *Options, spec ShardSpec) (*ShardOutcome, error) {
	o := opt.normalized()
	if err := validateSpec(spec); err != nil {
		return nil, err
	}
	sh := &shardRun{spec: spec}
	best, _, stats, err := runSearch(ctx, l, a, &o, modeBest, sh)
	if err != nil {
		return nil, err
	}
	out := &ShardOutcome{
		Stats: *stats, Classes: sh.classes,
		Spec: spec, OptFP: bestKey(l, a, &o).Hash,
	}
	if best != nil {
		out.Found = true
		out.Temporal = best.Mapping.Temporal.Clone()
		out.Seq = sh.bestSeq
	}
	return out, nil
}

// MergeShards reduces the shard outcomes of one planned search back into the
// whole-space result. The winner is chosen by re-materializing every shard
// winner through the deterministic evaluate path and taking the (score, seq)
// minimum — exactly the engine reducer's order — and the exact counters are
// reconstructed from the class records: distinct signatures define
// NestsGenerated, the smallest-seq representative per class carries Valid,
// and the per-shard visit counts recover ClassesMerged. Skipped and
// SubtreesPruned are exactly attributed per shard and sum directly. The
// trajectory-dependent Pruned counter is summed and may differ from a
// single-engine run, exactly as it already differs across worker counts.
//
// A merge with no winner returns (nil, stats, nil), mirroring runSearch;
// front ends turn that into the canonical no-valid-mapping error.
func MergeShards(l *workload.Layer, a *arch.Arch, opt *Options, outs []*ShardOutcome) (*Candidate, *Stats, error) {
	o := opt.normalized()
	reduce := !o.NoReduce
	stats := &Stats{}
	type classRec struct {
		seq   int64
		valid bool
	}
	var classes map[string]classRec
	if reduce {
		classes = make(map[string]classRec)
	}
	var visited int64
	for i, out := range outs {
		if out == nil {
			return nil, nil, fmt.Errorf("mapper: shard %d has no outcome", i)
		}
		st := &out.Stats
		visited += int64(st.NestsGenerated) + int64(st.ClassesMerged)
		stats.Skipped += st.Skipped
		stats.SubtreesPruned += st.SubtreesPruned
		stats.Pruned += st.Pruned
		if !reduce {
			stats.NestsGenerated += st.NestsGenerated
			stats.Valid += st.Valid
			continue
		}
		if len(out.Classes) != st.NestsGenerated {
			return nil, nil, fmt.Errorf("mapper: shard %d reports %d classes for %d representatives", i, len(out.Classes), st.NestsGenerated)
		}
		for j := range out.Classes {
			c := &out.Classes[j]
			if prev, ok := classes[string(c.Sig)]; !ok || c.Seq < prev.seq {
				classes[string(c.Sig)] = classRec{seq: c.Seq, valid: c.Valid}
			}
		}
	}
	if reduce {
		stats.NestsGenerated = len(classes)
		stats.ClassesMerged = int(visited) - len(classes)
		for _, r := range classes {
			if r.valid {
				stats.Valid++
			}
		}
	}
	mergeFP := bestKey(l, a, &o).Hash
	var best *Candidate
	bestScore, bestSeq := math.Inf(1), int64(math.MaxInt64)
	for i, out := range outs {
		if !out.Found {
			continue
		}
		c := evaluate(l, a, &o, out.Temporal)
		if c == nil {
			s := out.Spec
			detail := fmt.Sprintf("spec [%d+%d, %d+%d) depth %d", s.Lo, s.PermLo, s.Hi, s.PermHi, s.Depth)
			if out.OptFP != 0 && out.OptFP != mergeFP {
				return nil, nil, fmt.Errorf("mapper: shard %d (%s) winner %v failed re-evaluation: shard options fingerprint %016x != merge fingerprint %016x — the shard normalized different search options than this merge", i, detail, out.Temporal, out.OptFP, mergeFP)
			}
			return nil, nil, fmt.Errorf("mapper: shard %d (%s) winner %v failed re-evaluation with matching options fingerprint %016x — plan geometry mismatch or corrupt outcome", i, detail, out.Temporal, mergeFP)
		}
		if s := c.Score(o.Objective); s < bestScore || (s == bestScore && out.Seq < bestSeq) {
			best, bestScore, bestSeq = c, s, out.Seq
		}
	}
	return best, stats, nil
}
