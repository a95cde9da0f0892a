package mapper

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/arch"
	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/workload"
)

// AnnealOptions tunes the simulated-annealing search — the scalable
// alternative to exhaustive enumeration for layers whose factor-rich
// dimensions blow up the bounded space (e.g. 7-dimensional direct
// convolutions with large extents).
type AnnealOptions struct {
	// Spatial is the fixed spatial unrolling (required).
	Spatial loops.Nest
	// Iterations is the annealing length (default 4000).
	Iterations int
	// Restarts runs several independent chains, keeping the best
	// (default 3).
	Restarts int
	// Seed makes runs reproducible (default 1).
	Seed int64
	// InitialTemp and Cooling define the geometric schedule (defaults
	// 0.3 x initial score, factor per iteration so the final temperature
	// is ~1 cycle).
	InitialTemp float64
	// Objective ranks candidates (default MinLatency).
	Objective Objective
	// BWAware selects the model.
	BWAware bool
	// Hooks receives telemetry: an "anneal" phase timing for the whole
	// call plus periodic per-chain progress. Nil disables telemetry; with
	// hooks installed the consumed rng streams — and therefore the result
	// — are unchanged (hooks only observe). Excluded from memo keys like
	// Options.Hooks.
	Hooks *obs.SearchHooks
}

// Anneal searches the temporal-mapping space with simulated annealing:
// the state is an ordered temporal nest, neighbours are generated by
// swapping loop positions, splitting a loop into two factors, or merging
// two loops of the same dimension, and level boundaries are re-derived
// greedily per state.
//
// Cancellation: each chain probes ctx between iterations; a canceled run
// returns ctx.Err() and no candidate (partial chains are discarded).
func Anneal(ctx context.Context, l *workload.Layer, a *arch.Arch, opt *AnnealOptions) (*Candidate, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if opt == nil || len(opt.Spatial) == 0 {
		return nil, fmt.Errorf("mapper: anneal needs a spatial unrolling")
	}
	iters := opt.Iterations
	if iters <= 0 {
		iters = 4000
	}
	restarts := opt.Restarts
	if restarts <= 0 {
		restarts = 3
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	evalOpts := &Options{Spatial: opt.Spatial, BWAware: opt.BWAware, Objective: opt.Objective}

	// Initial state: one loop per non-trivial dimension, a fixed
	// reasonable order (C inner, then B, OX, OY, K, FX, FY outer).
	sp := opt.Spatial.DimProduct()
	var initial loops.Nest
	for _, d := range []loops.Dim{loops.C, loops.B, loops.OX, loops.OY, loops.K, loops.FX, loops.FY} {
		if e := loops.CeilDiv(l.Dim(d), sp[d]); e > 1 {
			initial = append(initial, loops.Loop{Dim: d, Size: e})
		}
	}

	// Restarts are independent chains with per-restart seeds, so they run
	// in parallel under the shared worker budget; merging in restart order
	// with a strict improvement keeps the result identical to the old
	// serial loop for any worker count.
	if opt.Hooks != nil {
		defer func(t0 time.Time) { opt.Hooks.EmitPhase("anneal", time.Since(t0)) }(time.Now())
	}
	cands := make([]*Candidate, restarts)
	par.ForEach(restarts, func(r int) {
		rng := rand.New(rand.NewSource(seed + int64(r)))
		cands[r] = annealChain(ctx, l, a, evalOpts, initial, iters, opt.InitialTemp, rng, r, opt.Hooks)
	})
	if err := ctx.Err(); err != nil {
		return nil, err // canceled: the chains bailed out early
	}
	var best *Candidate
	for _, cand := range cands {
		if cand != nil && (best == nil || cand.Score(opt.Objective) < best.Score(opt.Objective)) {
			best = cand
		}
	}
	if best == nil {
		return nil, fmt.Errorf("mapper: annealing found no valid mapping for %s on %s", l.Name, a.Name)
	}
	return best, nil
}

// annealChain runs one Metropolis chain. The chain canonicalizes every
// state by its model-equivalence signature and reuses the evaluation of the
// class representative — random walks revisit permutation classes
// constantly, and a signature probe is far cheaper than a full evaluation.
// Because equivalent states score bit-identically, the Metropolis decisions
// (and the consumed rng stream) are those of a chain that scores every state.
func annealChain(ctx context.Context, l *workload.Layer, a *arch.Arch, opts *Options,
	initial loops.Nest, iters int, temp0 float64, rng *rand.Rand, chain int, hooks *obs.SearchHooks) *Candidate {
	canon := newCanonicalizer(l, a, opts.Spatial)
	cache := make(map[string]*Candidate)
	eval := func(n loops.Nest) *Candidate {
		key := string(canon.signature(n))
		if c, ok := cache[key]; ok {
			return c
		}
		c := evaluate(l, a, opts, n)
		cache[key] = c
		return c
	}
	cur := initial.Clone()
	curCand := eval(cur)
	// Walk random neighbours until a valid starting point appears.
	for tries := 0; curCand == nil && tries < 200; tries++ {
		cur = neighbour(cur, rng)
		curCand = eval(cur)
	}
	if curCand == nil {
		return nil
	}
	best := curCand
	if temp0 <= 0 {
		temp0 = 0.3 * curCand.Score(opts.Objective)
		if temp0 <= 0 {
			temp0 = 1
		}
	}
	// Geometric cooling to ~1e-3 of the initial temperature.
	cool := math.Pow(1e-3, 1/float64(iters))
	temp := temp0
	for i := 0; i < iters; i++ {
		if i&63 == 0 && ctx.Err() != nil {
			return nil // canceled: the caller reports ctx.Err()
		}
		if hooks != nil && i&255 == 0 {
			hooks.EmitAnnealProgress(chain, i, best.Score(opts.Objective))
		}
		next := neighbour(cur, rng)
		nextCand := eval(next)
		temp *= cool
		if nextCand == nil {
			continue
		}
		delta := nextCand.Score(opts.Objective) - curCand.Score(opts.Objective)
		if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			cur, curCand = next, nextCand
			if curCand.Score(opts.Objective) < best.Score(opts.Objective) {
				best = curCand
			}
		}
	}
	if hooks != nil {
		hooks.EmitAnnealProgress(chain, iters, best.Score(opts.Objective))
	}
	return best
}

// neighbour produces a random mutation of the nest: swap, split or merge.
func neighbour(n loops.Nest, rng *rand.Rand) loops.Nest {
	out := n.Clone()
	if len(out) == 0 {
		return out
	}
	switch rng.Intn(3) {
	case 0: // swap two positions
		if len(out) >= 2 {
			i, j := rng.Intn(len(out)), rng.Intn(len(out))
			out[i], out[j] = out[j], out[i]
		}
	case 1: // split a loop at a random divisor, inserting the cofactor
		i := rng.Intn(len(out))
		ds := loops.Divisors(out[i].Size)
		if len(ds) > 2 {
			d := ds[1+rng.Intn(len(ds)-2)] // proper divisor > 1
			co := out[i].Size / d
			out[i].Size = d
			pos := rng.Intn(len(out) + 1)
			ins := loops.Loop{Dim: out[i].Dim, Size: co}
			out = append(out[:pos], append(loops.Nest{ins}, out[pos:]...)...)
		}
	default: // merge two loops of the same dim
		var pairs [][2]int
		for i := 0; i < len(out); i++ {
			for j := i + 1; j < len(out); j++ {
				if out[i].Dim == out[j].Dim {
					pairs = append(pairs, [2]int{i, j})
				}
			}
		}
		if len(pairs) > 0 {
			p := pairs[rng.Intn(len(pairs))]
			out[p[0]].Size *= out[p[1]].Size
			out = append(out[:p[1]], out[p[1]+1:]...)
		}
	}
	return out
}
