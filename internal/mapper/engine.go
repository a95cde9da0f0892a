package mapper

// The evaluation pipeline: a single generator walks the canonical nest
// enumeration (factorization × ordering, exactly the order the old serial
// search used), workers score candidates concurrently with per-worker
// scratch (no allocation on the reject path), and a reducer merges the
// per-worker bests with the tie-break (score, generation index). Because
// the serial search kept the FIRST candidate achieving the minimum score,
// and (score, index) is minimized by exactly that candidate, the parallel
// result is bit-identical to the serial one for any worker count.
//
// On top of the pipeline sits a branch-and-bound prune for the latency
// objective: the bandwidth-unaware baseline CC_spatial + preload + offload
// is an admissible lower bound on the full model's CC_total (the stall
// integration only ever adds SS_overall >= 0 to it), so a nest whose bound
// already exceeds the best full evaluation seen so far cannot win and its
// Step-1/2/3 evaluation is skipped. The shared best is a monotonically
// decreasing atomic; pruning only on a STRICT bound excess keeps equal-
// score candidates alive for the deterministic tie-break.
//
// The generator itself is symmetry- and bound-aware (DESIGN.md §9): it
// canonicalizes every walked ordering by its model-equivalence signature and
// emits only the first member of each class (reduce.go), and it drops whole
// factorization subtrees whose incremental lower bound — the partial
// temporal product composed per dimension, times the smallest completion,
// plus the mapping-independent preload/offload floor — already exceeds a
// deterministic probe score. Pruned subtrees never allocate and never cross
// the channel. Both mechanisms are exact: merged orderings score
// bit-identically to their representative, and pruned subtrees cannot
// contain the winner, so Best is bit-identical to the unreduced exhaustive
// search while the workers see a several-fold smaller stream.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/loops"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/workload"
)

// searchMode selects what the engine keeps.
type searchMode uint8

const (
	modeBest searchMode = iota // keep only the minimum (Best)
	modeAll                    // keep every valid candidate (Enumerate)
)

// scored pairs a materialized candidate with its canonical sort keys.
type scored struct {
	cand  *Candidate
	score float64
	key   string // temporal nest rendering, the lexicographic tie-break
	seq   int64  // generation index, the final tie-break
}

// job is one nest to evaluate, tagged with its generation index.
type job struct {
	seq  int64
	nest loops.Nest
}

// batchSize amortizes channel traffic: the generator ships nests to the
// workers in slabs of this many.
const batchSize = 64

type engine struct {
	ctx  context.Context
	l    *workload.Layer
	a    *arch.Arch
	o    *Options
	mode searchMode

	// aborted flips once when ctx is observed canceled: the generator stops
	// walking and the workers drop the remaining batches without scoring
	// them. After an abort the search returns ctx.Err() and every partial
	// counter/candidate is discarded.
	aborted atomic.Bool

	// prune enables the workers' lower-bound branch-and-bound (modeBest,
	// latency objective, full model only — for the baseline model the
	// "bound" IS the score, and other objectives are not bounded by it).
	prune bool
	// genPrune enables the generator-side subtree prune (modeBest, latency
	// objective, either model). Unlike the workers' prune it compares
	// against a FIXED deterministic probe bound, never the racy shared
	// best, so the emitted nest stream — and every exact Stats counter —
	// is independent of worker count and of NoPrune.
	genPrune bool
	// bestBits is Float64bits of the best score seen by any worker; it
	// only decreases. Read by workers for the prune decision.
	bestBits atomic.Uint64

	// shard restricts the walk to one contiguous prefix range of the
	// canonical enumeration (shard.go), or replays the walk arithmetically
	// for the shard planner. nil for an ordinary whole-space search.
	shard *shardRun
	// collectSeqs makes the workers record the walk seq of every candidate
	// they count as valid, so a shard outcome can tag its equivalence-class
	// records with validity (the reducer of a sharded search needs the
	// validity of the class REPRESENTATIVE, which may live in another shard).
	collectSeqs bool

	// Telemetry (engine_obs.go). hooks is nil unless Options.Hooks is set;
	// every observation site guards on that nil check, and the observation
	// state below is never touched on the fast path. None of it feeds back
	// into the search: the result is bit-identical with or without hooks.
	hooks       *obs.SearchHooks
	start       time.Time
	scoreTime   time.Duration // serial path: inline batch scoring so far
	obsValid    atomic.Int64
	obsPruned   atomic.Int64
	obsBestBits atomic.Uint64
}

// runSearch drives one search. It returns the best candidate (modeBest),
// the unsorted candidate list (modeAll), and exact statistics. When ctx is
// canceled mid-search the pipeline winds down cooperatively and runSearch
// returns ctx.Err() with no candidate and no stats.
func runSearch(ctx context.Context, l *workload.Layer, a *arch.Arch, o *Options, mode searchMode, sh *shardRun) (*Candidate, []scored, *Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	if err := l.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if len(o.Spatial) == 0 {
		return nil, nil, nil, fmt.Errorf("mapper: no spatial unrolling given")
	}
	e := &engine{ctx: ctx, l: l, a: a, o: o, mode: mode, shard: sh}
	e.prune = mode == modeBest && !o.NoPrune && o.Objective == MinLatency && o.BWAware
	e.genPrune = mode == modeBest && o.Objective == MinLatency
	e.collectSeqs = sh != nil && !o.NoReduce
	e.bestBits.Store(math.Float64bits(math.Inf(1)))
	stats := &Stats{}
	if o.Hooks != nil {
		e.hooks = o.Hooks
		e.start = time.Now()
		e.obsBestBits.Store(math.Float64bits(math.Inf(1)))
		defer func(t0 time.Time) { e.hooks.EmitPhase("search", time.Since(t0)) }(e.start)
	}

	// Decide the worker count. Forced counts (Workers >= 1) bypass the
	// shared budget; the default draws from it so that nested parallelism
	// (e.g. a layer sweep running many searches) never oversubscribes.
	workers := 1
	acquired := 0
	if o.Workers > 1 {
		workers = o.Workers
	} else if o.Workers == 0 {
		acquired = par.AcquireUpTo(par.Limit() - 1)
		workers = 1 + acquired
	}
	defer func() {
		for i := 0; i < acquired; i++ {
			par.Release()
		}
	}()

	ws := make([]*worker, workers)
	for i := range ws {
		ws[i] = newWorker(e)
	}

	if workers == 1 {
		// Serial path: the generator stages its nests into the same batches
		// the parallel workers drain, and each full batch is scored inline on
		// the caller's goroutine. With hooks set only the flushes are timed —
		// two clock reads per batch, never per ordering — so the "score"
		// phase is the inline scoring and "generate" the walk without it.
		emit, flush := e.stage(func(bt *jobBatch) {
			if e.hooks == nil {
				ws[0].run(bt)
				return
			}
			t0 := time.Now()
			ws[0].run(bt)
			e.scoreTime += time.Since(t0)
		})
		e.generate(stats, emit)
		flush()
		if e.hooks != nil {
			e.hooks.EmitPhase("score", e.scoreTime)
		}
	} else {
		ch := make(chan *jobBatch, workers)
		var wg sync.WaitGroup
		for _, w := range ws[1:] {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				w.drain(ch)
			}(w)
		}
		go func() {
			emit, flush := e.stage(func(bt *jobBatch) {
				// A slow consumer must not make the generator uncancelable:
				// if the channel is full when the context dies, drop the
				// batch and abort instead of parking in the send.
				// (Background's Done() is nil, so for batch callers this is
				// exactly the plain send.)
				select {
				case ch <- bt:
				case <-e.ctx.Done():
					e.aborted.Store(true)
					batchPool.Put(bt)
				}
			})
			e.generate(stats, emit)
			flush()
			close(ch)
		}()
		ws[0].drain(ch) // the caller is the first worker
		wg.Wait()
	}

	// Reduce: sum the exact counters, take the (score, seq) minimum.
	var best *Candidate
	bestScore, bestSeq := math.Inf(1), int64(math.MaxInt64)
	var all []scored
	for _, w := range ws {
		stats.Valid += w.valid
		stats.Pruned += w.pruned
		if w.best != nil && (w.bestScore < bestScore || (w.bestScore == bestScore && w.bestSeq < bestSeq)) {
			best, bestScore, bestSeq = w.best, w.bestScore, w.bestSeq
		}
		all = append(all, w.all...)
		w.release()
	}
	// A cancellation observed anywhere in the pipeline invalidates the
	// partial reduction: report the context's verdict, not a half-searched
	// space. (With ctx == Background this branch is unreachable, so batch
	// callers and the determinism tests see the exact old behaviour.)
	if e.aborted.Load() || ctx.Err() != nil {
		return nil, nil, nil, ctx.Err()
	}
	if sh != nil {
		// Shard epilogue: hand the winner's walk seq to the outcome and tag
		// each class record with the validity of its representative (release
		// above only pools the scratch — the per-worker seq lists survive).
		sh.bestSeq = bestSeq
		if len(sh.classes) > 0 {
			validAt := make(map[int64]struct{}, stats.Valid)
			for _, w := range ws {
				for _, s := range w.vseqs {
					validAt[s] = struct{}{}
				}
			}
			for i := range sh.classes {
				_, ok := validAt[sh.classes[i].Seq]
				sh.classes[i].Valid = ok
			}
		}
	}
	if e.hooks != nil {
		// Final snapshot: every counter exact (the reduce is done).
		p := e.obsSnapshot(stats, int64(stats.NestsGenerated+stats.ClassesMerged), true)
		p.Valid = int64(stats.Valid)
		p.Pruned = int64(stats.Pruned)
		p.BestCC = bestScore
		e.hooks.EmitProgress(p)
	}
	return best, all, stats, nil
}

// walkSpace computes the enumeration geometry: the temporal extent per
// dimension after spatial unrolling (ceil), and the per-dimension split
// alternatives including lightly padded extents — awkward (prime-rich)
// extents are rounded up to the next multiples of 2 and 4 so that
// stationarity-enabling inner loops exist (the padded iterations surface as
// spatial stall in the evaluation). A pure function of (layer, options): the
// shard planner and every shard executor derive the SAME geometry from it,
// which is what makes the prefix indexing below globally consistent.
func walkSpace(l *workload.Layer, o *Options) (extents [loops.NumDims]int64, dimSplits [loops.NumDims][][]int64) {
	sp := o.Spatial.DimProduct()
	for _, d := range loops.AllDims {
		extents[d] = loops.CeilDiv(l.Dim(d), sp[d])
	}
	for _, d := range loops.AllDims {
		dimSplits[d] = splits(extents[d], o.MaxSplitsPerDim, o.Pow2Splits)
		for _, pad := range []int64{2, 4} {
			pe := (extents[d] + pad - 1) / pad * pad
			if pe > extents[d] && pe < 2*extents[d] {
				dimSplits[d] = append(dimSplits[d], splits(pe, o.MaxSplitsPerDim, o.Pow2Splits)...)
			}
		}
		dimSplits[d] = dedupSplits(dimSplits[d])
	}
	return extents, dimSplits
}

// prefixStrides returns strides[0..depth] for the depth-`depth` prefix
// indexing of the walk: a depth-d node of the factorization recursion covers
// strides[d] prefixes (strides[depth] == 1), and the prefix index of a node
// is the positional accumulation of the split-alternative indices chosen for
// the first `depth` dimensions. The indexing spans the FULL cartesian
// product — pruned or capped subtrees keep their index space — so every
// shard and the planner agree on which prefix is which.
func prefixStrides(dimSplits *[loops.NumDims][][]int64, depth int) []int64 {
	strides := make([]int64, depth+1)
	strides[depth] = 1
	for d := depth - 1; d >= 0; d-- {
		strides[d] = strides[d+1] * int64(len(dimSplits[loops.AllDims[d]]))
	}
	return strides
}

// generate walks the canonical enumeration and hands each emitted nest to
// emit, keeping the exact counters. The nest passed to emit is a shared
// buffer, valid only for the duration of the call. Single-threaded; the
// emitted seq is the ordering's global walk index — strictly increasing
// within a run, and equal to the seq the whole-space walk would assign even
// when e.shard restricts the run to a prefix range (the shard starts its
// walk counter at ShardSpec.WalkedBefore).
func (e *engine) generate(st *Stats, emit func(seq int64, nest loops.Nest)) {
	o := e.o
	if e.hooks != nil {
		// The serial path scores batches inside emit; that time is its own
		// "score" phase.
		defer func(t0 time.Time) { e.hooks.EmitPhase("generate", time.Since(t0)-e.scoreTime) }(time.Now())
	}

	extents, dimSplits := walkSpace(e.l, o)

	reduce := !o.NoReduce
	var canon *canonicalizer
	if reduce || e.genPrune {
		canon = newCanonicalizer(e.l, e.a, o.Spatial)
	}

	// Generator-side branch and bound: score two fixed heuristic members of
	// the space up front; a split subtree whose smallest achievable
	// temporal product plus the mapping-independent preload/offload floor
	// already exceeds that score cannot contain the winner (every nest in
	// it scores STRICTLY worse than an existing member, so even the
	// tie-break cannot want it) and is dropped before its permutations
	// exist. The probe bound is deterministic — unlike the workers' shared
	// best it does not depend on scheduling — which keeps the emitted
	// stream and all exact counters identical for any worker count. The
	// probe score also seeds the workers' shared best, tightening their
	// prune from the first candidate on.
	probeBound := math.Inf(1)
	boundFloor := 0.0
	if e.genPrune {
		boundFloor = canon.boundFloor()
		for _, nest := range probeNests(&extents) {
			if s, ok := canon.score(nest, o.BWAware); ok && s < probeBound {
				probeBound = s
			}
		}
		if e.prune {
			e.lowerBest(probeBound)
		}
	}

	// minTail[d] is the smallest temporal product the dimensions from
	// AllDims[d] on can still contribute: every split alternative of a
	// dimension multiplies to at least the unpadded extent. float64 keeps
	// the running products safe from int64 overflow.
	var minTail [loops.NumDims + 1]float64
	minTail[loops.NumDims] = 1
	for d := loops.NumDims - 1; d >= 0; d-- {
		minTail[d] = minTail[d+1] * float64(extents[loops.AllDims[d]])
	}

	// Shard restriction (shard.go): a shard owns the contiguous range
	// [Lo, Hi) of depth-D split-choice prefixes and enters the walk with the
	// exact (walked, capped) state the whole-space walk would carry into
	// prefix Lo, so every seq it emits, every cap decision and every exact
	// counter matches the whole-space run over that range. In simulate mode
	// (the planner) nothing is restricted and nothing is emitted: the walk
	// is replayed arithmetically to meter per-prefix weights.
	sh := e.shard
	var strides []int64
	if sh != nil {
		strides = prefixStrides(&dimSplits, sh.spec.Depth)
	}

	// The walk: cartesian product of dimension splits -> block multisets ->
	// distinct orderings. MaxCandidates caps the ORDERINGS VISITED
	// (representatives plus merged duplicates); once it trips, the exact
	// remainder of every outstanding multiset is added to Skipped by
	// multinomial arithmetic instead of being walked.
	walked := 0
	capped := false
	if sh != nil {
		// WalkedBefore counts visits before position (Lo, PermLo); the
		// counter starts at the beginning of prefix Lo, PermLo visits
		// earlier, and advances back to WalkedBefore arithmetically while
		// the jump below consumes the previous shard's share of the prefix.
		walked = int(sh.spec.WalkedBefore - sh.spec.PermLo)
		capped = sh.spec.CappedBefore
	}
	// Sub-multiset windows (DESIGN.md §14): prefixPos counts the orderings
	// the whole-space walk visits inside the current depth-D prefix, and
	// [winLo, winHi) is the slice of those positions this shard owns — set
	// as each prefix is entered, unbounded for interior prefixes and
	// unsharded runs. shardDone trips when the walk crosses the shard's
	// upper boundary (or a ShardControl truncation) and aborts the descent.
	prefixPos := int64(0)
	winLo, winHi := int64(0), int64(math.MaxInt64)
	shardDone := false
	var ctl *ShardControl
	if sh != nil {
		ctl = sh.ctl
	}
	var rec func(d int, blocks []loops.Loop, prod float64, base int64)
	body := func(d int, blocks []loops.Loop, prod float64, base int64) {
		if d == loops.NumDims {
			if sh != nil && sh.simulate {
				// Planner replay: advance (walked, capped) exactly as the
				// visiting walk would — capped trips only when the budget
				// runs out STRICTLY inside a multiset, matching the visitor's
				// check-before-visit semantics — but touch no orderings.
				if e.ctx.Err() != nil {
					e.aborted.Store(true)
					return
				}
				if capped {
					return
				}
				n := loops.DistinctOrderings(blocks)
				if room := int64(o.MaxCandidates - walked); n > room {
					walked += int(room)
					capped = true
				} else {
					walked += int(n)
				}
				return
			}
			// Visitor leaf. The shard's window may cover only a slice of
			// this multiset's orderings: positions before winLo are consumed
			// arithmetically (the owning shard visits them), the boundary at
			// winHi ends the shard, and the budget-cap remainder n-v is
			// accounted by whichever shard owns the leaf's FIRST position —
			// pure position arithmetic, so the per-shard counters sum to the
			// whole-space count for any boundary placement. The ctx probe
			// here also bounds abort latency during long post-cap tallies.
			if e.ctx.Err() != nil {
				e.aborted.Store(true)
				return
			}
			n := loops.DistinctOrderings(blocks)
			// v is how many of this leaf's orderings the whole-space walk
			// visits (check-before-visit: the cap trips on the first attempt
			// past the budget).
			v := n
			if capped {
				v = 0
			} else if room := int64(o.MaxCandidates - walked); v > room {
				v = room
			}
			leafStart := prefixPos
			ownsStart := leafStart >= winLo && leafStart < winHi
			if leafStart >= winHi {
				// The shard's upper boundary: every position from here on
				// belongs to the next shard.
				shardDone = true
				return
			}
			if v == 0 {
				capped = true
				if ownsStart {
					st.Skipped += int(n)
				}
				return
			}
			if !ownsStart && leafStart+v <= winLo {
				// Every visited ordering of this leaf precedes the shard's
				// window.
				walked += int(v)
				prefixPos += v
				if v < n {
					capped = true
				}
				return
			}
			skip := int64(0)
			if winLo > leafStart {
				// The window opens mid-leaf: jump straight to the ordering
				// at rank winLo-leafStart within this multiset; the ranks
				// before it are the previous shard's.
				skip = winLo - leafStart
				walked += int(skip)
				prefixPos += skip
			}
			visit := func(nest loops.Nest) bool {
				// Cooperative cancellation: probe the context on every
				// visited ordering. Err() is a nil-channel check for
				// Background and one atomic load for a live context —
				// noise next to canonicalizing or scoring the ordering —
				// and it bounds the abort latency to a single candidate.
				if e.ctx.Err() != nil {
					e.aborted.Store(true)
					return false
				}
				if prefixPos >= winHi {
					shardDone = true
					return false
				}
				if walked == o.MaxCandidates {
					capped = true
					return false
				}
				if ctl != nil && int64(walked) >= ctl.limit.Load() {
					// Truncation stop, BEFORE this visit: (base, prefixPos)
					// is the exact handoff position for the remainder.
					sh.truncated = true
					sh.resume = ShardSpec{
						Depth: sh.spec.Depth,
						Lo:    base, PermLo: prefixPos,
						Hi: sh.spec.Hi, PermHi: sh.spec.PermHi,
						WalkedBefore: int64(walked),
					}
					shardDone = true
					return false
				}
				walked++
				prefixPos++
				if e.hooks != nil && walked%progressInterval == 0 {
					e.hooks.EmitProgress(e.obsSnapshot(st, int64(walked), false))
				}
				if ctl != nil && walked%frontierInterval == 0 {
					ctl.frontier.Store(int64(walked))
				}
				if reduce {
					if sh == nil {
						if canon.intern(nest) {
							st.ClassesMerged++
							return true
						}
					} else {
						// A sharded walk records (signature, seq) for every
						// representative it emits: the intern set is local to
						// this shard, so a class whose first member lives in
						// an earlier shard is re-emitted here and the merge
						// reconciles the duplicates by signature (shard.go).
						sig, dup := canon.internSig(nest)
						if dup {
							st.ClassesMerged++
							return true
						}
						sh.classes = append(sh.classes, ShardClass{Sig: append([]byte(nil), sig...), Seq: int64(walked - 1)})
					}
				}
				st.NestsGenerated++
				emit(int64(walked-1), nest)
				return true
			}
			if skip > 0 {
				permuteFrom(blocks, skip, visit)
			} else {
				permute(blocks, visit)
			}
			if ownsStart && v < n {
				// Exact cap remainder of a leaf whose first position this
				// shard owns — added even when a boundary or truncation
				// stopped the visits early, because the remainder is fixed
				// by the budget, not by who visited what.
				st.Skipped += int(n - v)
			}
			return
		}
		dim := loops.AllDims[d]
		for si, s := range dimSplits[dim] {
			if shardDone {
				return
			}
			next := blocks
			part := int64(1)
			for _, f := range s {
				part *= f
				if f > 1 {
					next = append(next[:len(next):len(next)], loops.Loop{Dim: dim, Size: f})
				}
			}
			cbase := base
			if sh != nil && d < sh.spec.Depth {
				cbase = base + int64(si)*strides[d+1]
				// Skip subtrees entirely outside the owned range: their walk
				// state is already accounted for in WalkedBefore (earlier
				// positions) or is some other shard's business (later ones).
				// Prefix Hi is descended only when the shard owns its first
				// PermHi positions; partially overlapping subtrees narrow to
				// a single prefix by d == Depth-1. The planner's restricted
				// replays (simulate) apply the same rule, which is what lets
				// it re-meter one prefix's children in isolation.
				if cbase+strides[d+1] <= sh.spec.Lo || cbase > sh.spec.Hi ||
					(cbase == sh.spec.Hi && sh.spec.PermHi == 0) {
					continue
				}
			}
			// Once capped, pruning stops too: the remainder is counted, not
			// walked, and the count must not depend on the bound. A sharded
			// walk makes the same prune decisions as the whole-space walk
			// (the probe bound is deterministic and capped agrees at every
			// shared node — see DESIGN.md §13) but attributes the counter to
			// the shard owning the subtree's first walk position — above the
			// split depth that is the first prefix, below it the next visit
			// position against the window — so the merge sums to the
			// whole-space count exactly even when shards share a prefix.
			if !capped && float64(part)*prod*minTail[d+1]+boundFloor > probeBound {
				owns := true
				if sh != nil && !sh.simulate {
					if d < sh.spec.Depth {
						owns = (cbase > sh.spec.Lo || (cbase == sh.spec.Lo && sh.spec.PermLo == 0)) &&
							(cbase < sh.spec.Hi || (cbase == sh.spec.Hi && sh.spec.PermHi > 0))
					} else {
						owns = prefixPos >= winLo && prefixPos < winHi
					}
				}
				if owns {
					st.SubtreesPruned++
				}
				continue
			}
			rec(d+1, next, float64(part)*prod, cbase)
		}
	}
	rec = func(d int, blocks []loops.Loop, prod float64, base int64) {
		if e.aborted.Load() || shardDone {
			return // canceled or past the shard boundary: stop descending
		}
		if sh != nil && d == sh.spec.Depth {
			// Entering a depth-D prefix: reset the position counter and
			// derive this shard's window inside it.
			prefixPos = 0
			winLo, winHi = 0, math.MaxInt64
			if !sh.simulate {
				if base == sh.spec.Lo {
					winLo = sh.spec.PermLo
				}
				if base == sh.spec.Hi && sh.spec.PermHi > 0 {
					winHi = sh.spec.PermHi
				}
			}
			if sh.weightf != nil {
				w0 := walked
				body(d, blocks, prod, base)
				sh.weightf(base, walked-w0, capped)
				return
			}
		}
		body(d, blocks, prod, base)
	}
	rec(0, nil, 1, 0)
}

// workerScratch is the heavy, search-independent part of a worker's state:
// the boundary assigner (its prefix table carried from job to job) and a
// core.Evaluator whose internal buffers (and Step-1 op-cache) persist
// across candidates. It is recycled through scratchPool so that
// back-to-back searches — a network sweep evaluating dozens of layers, a
// benchmark loop — stop re-growing the evaluator buffers from zero on every
// Best call.
type workerScratch struct {
	b  bounder
	ev core.Evaluator

	// Batched-scoring slabs (structure of arrays over one jobBatch): each
	// slot owns a Mapping with its own boundary storage so the surviving
	// nests of a batch can be validated first and then scored in one
	// core.Evaluator.ScoreBatch pass over the shared memo layers.
	slots [batchSize]batchSlot
	probs []*core.Problem
	seqs  []int64
	outs  []float64
}

// batchSlot is one lane of the batched-scoring slab.
type batchSlot struct {
	m    mapping.Mapping
	prob core.Problem
}

var scratchPool = sync.Pool{New: func() any { return new(workerScratch) }}

// worker holds one evaluation lane: pooled scratch plus a reusable mapping
// (shared read-only spatial nest, boundaries aliasing the bounder's). The
// reject path — bounds overflow, validation failure, prune — allocates
// nothing.
type worker struct {
	e    *engine
	s    *workerScratch
	m    mapping.Mapping
	prob core.Problem

	valid  int
	pruned int

	best      *Candidate
	bestScore float64
	bestSeq   int64

	all []scored // modeAll only

	// vseqs records the walk seq of every candidate counted in valid, for
	// the shard epilogue's class-validity tagging (engine.collectSeqs only).
	vseqs []int64
}

func newWorker(e *engine) *worker {
	w := &worker{e: e, s: scratchPool.Get().(*workerScratch), bestScore: math.Inf(1), bestSeq: math.MaxInt64}
	w.s.b.reset(e.l, e.a, e.o.Spatial)
	w.m.Spatial = e.o.Spatial
	w.prob = core.Problem{Layer: e.l, Arch: e.a, Mapping: &w.m}
	for i := range w.s.slots {
		// The scratch is pooled across searches: force every batch slot to
		// re-bind to THIS search's layer/arch/spatial on first use.
		w.s.slots[i].prob.Layer = nil
	}
	return w
}

// release returns the worker's scratch to the pool. The worker must not be
// used afterwards.
func (w *worker) release() {
	scratchPool.Put(w.s)
	w.s = nil
}

// jobBatch is a recyclable slab of jobs: the nests of all jobs in a batch
// are carved out of one shared loop slab, and the whole batch goes back to
// batchPool once a worker has drained it (safe: evaluate clones any nest it
// materializes, nothing else retains the slices).
type jobBatch struct {
	jobs []job
	slab []loops.Loop
}

var batchPool = sync.Pool{New: func() any { return new(jobBatch) }}

// stage returns an emit function for generate that copies each nest into a
// pooled jobBatch and hands every full batch to ship, plus a flush that
// ships the last partial one. The generator emits nests from a shared
// buffer it overwrites on the next emit, hence the copy into the batch slab
// (a slab regrow leaves earlier jobs pointing into the old array, which
// stays valid — the slices are read-only).
func (e *engine) stage(ship func(*jobBatch)) (emit func(int64, loops.Nest), flush func()) {
	var cur *jobBatch
	emit = func(seq int64, nest loops.Nest) {
		if cur == nil {
			cur = batchPool.Get().(*jobBatch)
			cur.jobs = cur.jobs[:0]
			cur.slab = cur.slab[:0]
		}
		start := len(cur.slab)
		cur.slab = append(cur.slab, nest...)
		cur.jobs = append(cur.jobs, job{seq: seq, nest: loops.Nest(cur.slab[start:len(cur.slab):len(cur.slab)])})
		if len(cur.jobs) == batchSize {
			ship(cur)
			cur = nil
		}
	}
	flush = func() {
		if cur != nil {
			ship(cur)
			cur = nil
		}
	}
	return emit, flush
}

func (w *worker) drain(ch <-chan *jobBatch) {
	for bt := range ch {
		w.run(bt)
	}
}

// run scores one batch and returns it to the pool. After an abort it keeps
// accepting batches (the generator may have batches in flight and must
// never block on a full channel) but stops scoring — checked per job, and
// against the context directly, so that a cancellation arriving mid-batch
// (or after the generator already finished and can no longer raise the
// flag) skips the remaining evaluations instead of grinding out the queue.
func (w *worker) run(bt *jobBatch) {
	defer batchPool.Put(bt)
	e := w.e
	if e.mode == modeBest && e.o.Objective == MinLatency && e.o.BWAware {
		w.processBatch(bt)
		return
	}
	for _, j := range bt.jobs {
		if e.aborted.Load() {
			return
		}
		if e.ctx.Err() != nil {
			e.aborted.Store(true)
			return
		}
		w.process(j)
	}
}

// processBatch is the latency-objective fast path over one jobBatch: a
// structure-of-arrays pass that assigns bounds, validates and bound-checks
// every job first, then scores all survivors in one Evaluator.ScoreBatch
// call — the slab form that keeps the evaluator's Step-1 and Step-2 memo
// layers hot across sibling nests. Each score is bit-identical to the
// per-job ScoreLatency the serial path runs (core.ScoreBatch's contract),
// Valid counts validations exactly as process does, and the (score, seq)
// fold is order-independent, so the reduction cannot tell the two paths
// apart beyond the trajectory-dependent Pruned counter.
func (w *worker) processBatch(bt *jobBatch) {
	e := w.e
	o := e.o
	s := w.s
	s.probs = s.probs[:0]
	s.seqs = s.seqs[:0]
	for i := range bt.jobs {
		j := &bt.jobs[i]
		if e.aborted.Load() {
			return
		}
		if e.ctx.Err() != nil {
			e.aborted.Store(true)
			return
		}
		slot := &s.slots[i]
		if slot.prob.Layer == nil {
			slot.m.Spatial = o.Spatial
			slot.prob = core.Problem{Layer: e.l, Arch: e.a, Mapping: &slot.m}
		}
		slot.m.Temporal = j.nest
		if !s.b.assign(j.nest) || !s.b.valid() {
			continue
		}
		for op := range s.b.ops {
			slot.m.Bound[op] = append(slot.m.Bound[op][:0], s.b.ops[op].bounds...)
		}
		w.valid++
		if e.collectSeqs {
			w.vseqs = append(w.vseqs, j.seq)
		}
		if e.hooks != nil {
			e.obsValid.Add(1)
		}
		if e.prune {
			if lb := s.ev.LowerBound(&slot.prob); lb > e.loadBest() {
				w.pruned++
				if e.hooks != nil {
					e.obsPruned.Add(1)
				}
				continue
			}
		}
		s.probs = append(s.probs, &slot.prob)
		s.seqs = append(s.seqs, j.seq)
	}
	if len(s.probs) == 0 {
		return
	}
	if cap(s.outs) < len(s.probs) {
		s.outs = make([]float64, len(s.probs))
	}
	outs := s.outs[:len(s.probs)]
	if s.ev.ScoreBatch(s.probs, outs) != nil {
		return // unreachable: the output slab is sized above
	}
	for i, score := range outs {
		if math.IsNaN(score) {
			continue
		}
		seq := s.seqs[i]
		if w.better(score, seq) {
			if c := evaluate(e.l, e.a, o, s.probs[i].Mapping.Temporal); c != nil {
				w.best, w.bestScore, w.bestSeq = c, score, seq
				if e.prune {
					e.lowerBest(score)
				}
				if e.hooks != nil {
					e.obsImproved(score, seq)
				}
			}
		}
	}
}

// process scores one nest. Valid counts mappings that pass validation (and,
// where a candidate is materialized, evaluation), never depending on the
// prune trajectory — so Stats.Valid is identical for any worker count.
func (w *worker) process(j job) {
	e := w.e
	o := e.o
	seq, nest := j.seq, j.nest
	w.m.Temporal = nest
	if !w.s.b.assign(nest) || !w.s.b.valid() {
		return
	}
	w.s.b.bounds(&w.m)

	if e.mode == modeAll || o.Objective == MinEnergy || o.Objective == MinEDP {
		// Enumeration and energy objectives need the materialized result
		// (diagnostics / energy) for every valid candidate anyway.
		c := evaluate(e.l, e.a, o, nest)
		if c == nil {
			return
		}
		w.valid++
		if e.collectSeqs {
			w.vseqs = append(w.vseqs, seq)
		}
		if e.hooks != nil {
			e.obsValid.Add(1)
		}
		s := c.Score(o.Objective)
		if e.mode == modeAll {
			w.all = append(w.all, scored{cand: c, score: s, key: c.Mapping.Temporal.String(), seq: seq})
			return
		}
		if w.better(s, seq) {
			w.best, w.bestScore, w.bestSeq = c, s, seq
			if e.hooks != nil {
				e.obsImproved(s, seq)
			}
		}
		return
	}

	// Latency objective: scratch-based scoring, no allocation unless the
	// candidate improves the worker's best.
	w.valid++
	if e.collectSeqs {
		w.vseqs = append(w.vseqs, seq)
	}
	if e.hooks != nil {
		e.obsValid.Add(1)
	}
	var score float64
	if o.BWAware {
		if e.prune {
			lb := w.s.ev.LowerBound(&w.prob)
			if lb > e.loadBest() {
				w.pruned++
				if e.hooks != nil {
					e.obsPruned.Add(1)
				}
				return
			}
		}
		s, err := w.s.ev.ScoreLatency(&w.prob)
		if err != nil {
			return
		}
		score = s
	} else {
		// The baseline model's CC_total IS the lower bound expression.
		score = w.s.ev.LowerBound(&w.prob)
	}
	if w.better(score, seq) {
		if c := evaluate(e.l, e.a, o, nest); c != nil {
			w.best, w.bestScore, w.bestSeq = c, score, seq
			if e.prune {
				e.lowerBest(score)
			}
			if e.hooks != nil {
				e.obsImproved(score, seq)
			}
		}
	}
}

// better reports whether (score, seq) beats the worker's current best under
// the canonical order.
func (w *worker) better(score float64, seq int64) bool {
	return score < w.bestScore || (score == w.bestScore && seq < w.bestSeq)
}

// loadBest returns the shared best-so-far score.
func (e *engine) loadBest() float64 {
	return math.Float64frombits(e.bestBits.Load())
}

// lowerBest lowers the shared best-so-far to s if s improves it.
func (e *engine) lowerBest(s float64) {
	bits := math.Float64bits(s)
	for {
		cur := e.bestBits.Load()
		if math.Float64frombits(cur) <= s {
			return
		}
		if e.bestBits.CompareAndSwap(cur, bits) {
			return
		}
	}
}
