// Package mapper is a ZigZag-style temporal-mapping search engine: given a
// layer, an architecture and a fixed spatial unrolling, it enumerates
// temporal loop nests (per-dimension tiling factorization × loop ordering),
// assigns per-operand memory-level boundaries greedily under capacity, and
// evaluates each valid mapping with the latency model of package core
// (optionally the bandwidth-unaware baseline) and the energy model of
// package energy.
//
// The paper integrates its latency model with ZigZag (Section V) to
// generate design points; this package plays that role. It is exhaustive
// within a bounded factorization/ordering space and deterministic: the
// evaluation pipeline (engine.go) may fan candidates out across a worker
// pool, but the selected mapping, its score and the search statistics are
// identical to a serial run.
package mapper

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/loops"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Objective selects what Best optimizes.
type Objective uint8

// Optimization objectives.
const (
	MinLatency Objective = iota
	MinEnergy
	MinEDP // energy-delay product
)

// Options tunes the search space.
type Options struct {
	// Spatial is the fixed spatial unrolling (required).
	Spatial loops.Nest
	// MaxSplitsPerDim bounds how many temporal loops one dimension may be
	// split into (1 or 2; default 2).
	MaxSplitsPerDim int
	// Pow2Splits restricts split factors to powers of two (cuts the space
	// for large prime-rich extents). Default false.
	Pow2Splits bool
	// MaxCandidates caps the enumeration walk: the number of ordered nests
	// VISITED, whether each is evaluated directly (NoReduce) or first
	// canonicalized into its model-equivalence class (default — the same
	// budget then covers the same slice of the mapping space while
	// evaluating only one representative per class). The exact remainder
	// beyond the budget is reported as Stats.Skipped. Default 50000.
	MaxCandidates int
	// Objective selects the ranking (default MinLatency).
	Objective Objective
	// BWAware selects the full model (true, default) or the bandwidth-
	// unaware baseline for ranking — used to reproduce Fig. 8(a).
	BWAware bool
	// EnergyTable overrides the default energy table.
	EnergyTable *energy.Table
	// Workers caps the evaluation parallelism: 0 (default) draws extra
	// workers from the shared par budget (up to GOMAXPROCS across ALL
	// concurrent searches and sweeps in the process), 1 forces serial
	// evaluation, and n > 1 forces exactly n workers regardless of the
	// budget (tests and benchmarks). The result is identical in all cases.
	Workers int
	// NoPrune disables the workers' branch-and-bound lower-bound prune
	// (latency objectives only; see engine.go). The selected mapping and
	// all exact statistics are identical with or without pruning — the
	// knob exists for measurement.
	NoPrune bool
	// NoReduce disables the symmetry reduction (DESIGN.md §9): every
	// distinct loop ordering is scored instead of one representative per
	// model-equivalence class. The selected mapping and its score are
	// bit-identical either way (the reduction is exact); the knob exists
	// for cross-checking and measurement (-nosym in the cmds). The
	// Stats counters change meaning with it — see Stats.
	NoReduce bool
	// Hooks receives search telemetry (phase timings, periodic progress
	// snapshots, best-score improvements). Nil — the default — disables
	// telemetry at the cost of one pointer check per event site; with
	// hooks installed the selected mapping, its score and every exact
	// Stats counter are bit-identical to a hookless run (guarded by
	// TestHooksDoNotPerturbSearch). Like Workers/NoPrune, Hooks is
	// excluded from memo keys: cached searches coalesce regardless of
	// telemetry, and only the run that actually computes sees events.
	Hooks *obs.SearchHooks
}

func (o *Options) normalized() Options {
	out := *o
	if out.MaxSplitsPerDim <= 0 {
		out.MaxSplitsPerDim = 2
	}
	if out.MaxCandidates <= 0 {
		out.MaxCandidates = 50000
	}
	return out
}

// Candidate is one evaluated valid mapping.
type Candidate struct {
	Mapping  *mapping.Mapping
	Result   *core.Result
	EnergyPJ float64
}

// Score returns the candidate's objective value (lower is better).
func (c *Candidate) Score(obj Objective) float64 {
	switch obj {
	case MinEnergy:
		return c.EnergyPJ
	case MinEDP:
		return c.EnergyPJ * c.Result.CCTotal
	}
	return c.Result.CCTotal
}

// Stats summarizes a search. All counters except Pruned are exact: they are
// pure functions of (layer, arch, Options) — independent of the worker
// count and of NoPrune, so a parallel run reports the same values as a
// serial run of the same search. Pruned is the only trajectory-dependent
// counter: it reports how many full evaluations the workers' lower bound
// skipped, which depends on how fast the shared best-so-far tightened and
// therefore on scheduling.
type Stats struct {
	// NestsGenerated counts the ordered nests handed to evaluation: with
	// the symmetry reduction active (default) one representative per
	// model-equivalence class, with NoReduce every visited ordering.
	NestsGenerated int
	// ClassesMerged counts visited orderings absorbed into an earlier
	// representative's class (always 0 under NoReduce). NestsGenerated +
	// ClassesMerged is the walk length MaxCandidates caps.
	ClassesMerged int
	// SubtreesPruned counts factorization subtrees the generator dropped
	// against its deterministic probe bound before permuting them
	// (engine.go); their orderings appear in no other counter.
	SubtreesPruned int
	// Valid counts evaluated mappings passing validation (under reduction:
	// valid class representatives).
	Valid int
	// Skipped is the exact number of orderings beyond the MaxCandidates
	// walk budget, counted by multinomial arithmetic rather than walked.
	Skipped int
	// Pruned counts full evaluations skipped by the workers' lower bound
	// (informational; trajectory-dependent).
	Pruned int
}

// Best searches the space and returns the best candidate by the objective,
// together with search statistics. Ties on the objective are broken by
// generation order (the first nest in the canonical enumeration wins),
// which makes the result independent of the worker count.
//
// The search honors ctx: cancellation (or an expired deadline) stops the
// generator and the workers cooperatively, and Best returns ctx.Err()
// without a candidate — a canceled search never yields a partial result.
// Pass context.Background() for the batch behaviour.
func Best(ctx context.Context, l *workload.Layer, a *arch.Arch, opt *Options) (*Candidate, *Stats, error) {
	o := opt.normalized()
	best, _, stats, err := runSearch(ctx, l, a, &o, modeBest, nil)
	if err != nil {
		return nil, nil, err
	}
	if best == nil {
		return nil, stats, NoValidMappingError(l, a, stats)
	}
	return best, stats, nil
}

// NoValidMappingError is the canonical "search found nothing" error, shared
// by every search front end (Best, the cache rebuild, the sharded fabric) so
// that all paths fail byte-identically.
func NoValidMappingError(l *workload.Layer, a *arch.Arch, stats *Stats) error {
	return fmt.Errorf("mapper: no valid mapping for layer %s on arch %s (of %d nests)", l.Name, a.Name, stats.NestsGenerated)
}

// Enumerate returns every valid candidate (use bounded options; intended
// for analysis and mapping-space counting, e.g. Case 1's mapping census).
// With the symmetry reduction active (default) that means one candidate per
// valid model-equivalence class; set NoReduce to enumerate every valid
// ordering. Candidates are ordered canonically: by score, then by the
// temporal nest's lexicographic rendering, then by generation order — so
// equal-score candidates land in a deterministic order regardless of the
// worker count. Unlike Best, Enumerate never bound-prunes subtrees (every
// valid candidate is wanted, not just the winner).
func Enumerate(ctx context.Context, l *workload.Layer, a *arch.Arch, opt *Options) ([]*Candidate, *Stats, error) {
	o := opt.normalized()
	_, scoredAll, stats, err := runSearch(ctx, l, a, &o, modeAll, nil)
	if err != nil {
		return nil, nil, err
	}
	sort.Slice(scoredAll, func(i, j int) bool {
		if scoredAll[i].score != scoredAll[j].score {
			return scoredAll[i].score < scoredAll[j].score
		}
		if scoredAll[i].key != scoredAll[j].key {
			return scoredAll[i].key < scoredAll[j].key
		}
		return scoredAll[i].seq < scoredAll[j].seq
	})
	all := make([]*Candidate, len(scoredAll))
	for i := range scoredAll {
		all[i] = scoredAll[i].cand
	}
	return all, stats, nil
}

// evaluate builds boundaries for one ordered nest, validates and scores it
// with freshly allocated structures — the materialization path, used for
// kept candidates and by the annealer. Returns nil for invalid mappings.
// The hot path of the search engine uses scratch-based scoring instead
// (engine.go) and only materializes improvements.
func evaluate(l *workload.Layer, a *arch.Arch, o *Options, nest loops.Nest) *Candidate {
	m := &mapping.Mapping{Spatial: o.Spatial.Clone(), Temporal: nest.Clone()}
	if !assignBounds(m, l, a) {
		return nil
	}
	if err := m.Validate(l, a); err != nil {
		return nil
	}
	p := &core.Problem{Layer: l, Arch: a, Mapping: m}
	var (
		r   *core.Result
		err error
	)
	if o.BWAware {
		r, err = core.Evaluate(p)
	} else {
		r, err = core.EvaluateBWUnaware(p)
	}
	if err != nil {
		return nil
	}
	c := &Candidate{Mapping: m, Result: r}
	if o.Objective == MinEnergy || o.Objective == MinEDP {
		b, err := energy.Evaluate(p, o.EnergyTable)
		if err != nil {
			return nil
		}
		c.EnergyPJ = b.TotalPJ
	}
	return c
}

// assignBounds sets each operand's level boundaries greedily: every level
// absorbs as many loops (from where the previous level stopped) as its
// mapper-visible capacity allows. Because operand-irrelevant loops do not
// grow the resident tile, this automatically normalizes reuse loops to the
// lowest possible level (the canonical placement discussed in DESIGN.md).
// Returns false when even the spatial tile overflows some level.
func assignBounds(m *mapping.Mapping, l *workload.Layer, a *arch.Arch) bool {
	var chains [loops.NumOperands][]*arch.Memory
	var store [loops.NumOperands][]int
	for _, op := range loops.AllOperands {
		chains[op] = a.ChainMems(op)
	}
	return assignBoundsIn(m, l, &chains, &store)
}

// assignBoundsIn is assignBounds with caller-provided chain resolution and
// boundary storage, so the search hot path can run it allocation-free. The
// boundary slices written into m.Bound alias store.
func assignBoundsIn(m *mapping.Mapping, l *workload.Layer, chains *[loops.NumOperands][]*arch.Memory, store *[loops.NumOperands][]int) bool {
	n := len(m.Temporal)
	for _, op := range loops.AllOperands {
		chain := chains[op]
		bounds := store[op][:0]
		for range chain {
			bounds = append(bounds, 0)
		}
		store[op] = bounds
		prev := 0
		for lev := range chain {
			if lev == len(chain)-1 {
				bounds[lev] = n
				break
			}
			capBits := chain[lev].MapperCapacityBits()
			bits := int64(l.Precision.Bits(op))
			b := prev
			m.Bound[op] = bounds // MemData reads Bound; keep it current
			bounds[lev] = b
			if m.MemData(op, lev, l.Strides)*bits > capBits {
				return false // spatial tile alone does not fit
			}
			for b < n {
				bounds[lev] = b + 1
				if m.MemData(op, lev, l.Strides)*bits > capBits {
					bounds[lev] = b
					break
				}
				b++
			}
			prev = bounds[lev]
		}
		m.Bound[op] = bounds
	}
	return true
}

// splits returns the ways to factor extent into up to maxParts ordered
// parts (inner first), dropping 1-factors. extent 1 yields one empty split.
func splits(extent int64, maxParts int, pow2 bool) [][]int64 {
	if extent == 1 {
		return [][]int64{{}}
	}
	keepFactor := func(f int64) bool {
		if !pow2 {
			return true
		}
		return f&(f-1) == 0 || f == extent
	}
	out := [][]int64{{extent}}
	if maxParts < 2 {
		return out
	}
	for _, d := range loops.Divisors(extent) {
		if d == 1 || d == extent {
			continue
		}
		if !keepFactor(d) || !keepFactor(extent/d) {
			continue
		}
		out = append(out, []int64{d, extent / d})
	}
	return out
}

// dedupSplits removes duplicate split alternatives.
func dedupSplits(in [][]int64) [][]int64 {
	seen := map[string]bool{}
	out := in[:0]
	for _, s := range in {
		key := fmt.Sprint(s)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, s)
	}
	return out
}

// permute visits every distinct ordering of the blocks exactly once; visit
// returns false to stop the walk (walk budget exhausted). The nest passed to
// visit is a shared buffer, only valid for the duration of the call.
//
// Equal blocks are always adjacent in the mapper's multisets — each
// dimension contributes the parts of ONE split alternative, so equal loops
// can only be same-dim neighbours — which makes the duplicate-position skip
// below sufficient for exactness: the walk visits precisely the
// loops.DistinctOrderings(blocks) distinct sequences, the identity the
// engine's Skipped accounting rests on.
func permute(blocks []loops.Loop, visit func(loops.Nest) bool) {
	n := len(blocks)
	if n == 0 {
		visit(nil)
		return
	}
	nest := make(loops.Nest, 0, n)
	used := make([]bool, n)
	var rec func() bool
	rec = func() bool {
		if len(nest) == n {
			return visit(nest)
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			// Skip duplicate blocks at the same position.
			if i > 0 && !used[i-1] && blocks[i] == blocks[i-1] {
				continue
			}
			used[i] = true
			nest = append(nest, blocks[i])
			ok := rec()
			nest = nest[:len(nest)-1]
			used[i] = false
			if !ok {
				return false
			}
		}
		return true
	}
	rec()
}

// permuteFrom visits the distinct orderings of blocks in the same walk order
// as permute, starting at the zero-based rank `skip` (loops.RankOrdering's
// index): permuteFrom(blocks, 0, visit) == permute(blocks, visit), and for
// any skip the orderings visited are exactly permute's from position skip
// on. The jump is arithmetic — loops.UnrankOrdering materializes the target
// ordering and the recursion re-enters along that path — so resuming a walk
// mid-multiset costs O(n^2), not O(skip). Nothing is visited when skip is at
// or past the multiset's last ordering.
func permuteFrom(blocks []loops.Loop, skip int64, visit func(loops.Nest) bool) {
	if skip <= 0 {
		permute(blocks, visit)
		return
	}
	if skip >= loops.DistinctOrderings(blocks) {
		return
	}
	target := loops.UnrankOrdering(blocks, skip)
	n := len(blocks)
	nest := make(loops.Nest, 0, n)
	used := make([]bool, n)
	var rec func(onPath bool) bool
	rec = func(onPath bool) bool {
		if len(nest) == n {
			return visit(nest)
		}
		start := 0
		if onPath {
			// Re-enter along the target ordering: take the target's block at
			// this position first (its first unused index — equal blocks are
			// interchangeable), staying on-path one level deeper, then fall
			// through to the choices after it as complete subtrees.
			ti := -1
			for i := 0; i < n; i++ {
				if !used[i] && blocks[i] == target[len(nest)] {
					ti = i
					break
				}
			}
			used[ti] = true
			nest = append(nest, blocks[ti])
			ok := rec(true)
			nest = nest[:len(nest)-1]
			used[ti] = false
			if !ok {
				return false
			}
			start = ti + 1
		}
		for i := start; i < n; i++ {
			if used[i] {
				continue
			}
			if i > 0 && !used[i-1] && blocks[i] == blocks[i-1] {
				continue
			}
			used[i] = true
			nest = append(nest, blocks[i])
			ok := rec(false)
			nest = nest[:len(nest)-1]
			used[i] = false
			if !ok {
				return false
			}
		}
		return true
	}
	rec(true)
}
