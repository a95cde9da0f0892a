package mapper

// Symmetry reduction (DESIGN.md §9). The latency model reads a temporal
// nest only through per-operand per-level dim products and top reuse runs
// (core.Evaluator.AppendSignature documents the exactness argument), so the
// enumeration's orderings collapse into model-equivalence classes whose
// members all score identically. The canonicalizer computes that signature
// for candidate nests — AFTER the greedy boundary assignment, because the
// level contents the model sees are only known then — and the generator
// emits exactly one representative per class: the first member in the
// deterministic walk order, which is precisely the member the exhaustive
// search's (score, seq) tie-break would have selected.

import (
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/loops"
	"repro/internal/mapping"
	"repro/internal/memo"
	"repro/internal/workload"
)

// canonicalizer computes model-equivalence signatures for temporal nests of
// one (layer, arch, spatial unrolling) search, allocation-free per nest, and
// interns them into a collision-checked class set. One prefix dim-product
// table per nest drives both the greedy boundaries and the signature, and it
// is carried along the walk (bounds.go). Not safe for concurrent use; the
// generator owns one, each annealing chain owns one.
type canonicalizer struct {
	b    bounder
	m    mapping.Mapping
	prob core.Problem
	ev   core.Evaluator
	seen memo.Set
}

func newCanonicalizer(l *workload.Layer, a *arch.Arch, spatial loops.Nest) *canonicalizer {
	c := &canonicalizer{}
	c.b.reset(l, a, spatial)
	c.m.Spatial = spatial
	c.prob = core.Problem{Layer: l, Arch: a, Mapping: &c.m}
	return c
}

// boundsFailSig marks the class of nests whose greedy boundary assignment
// fails (the spatial tile alone overflows a level): none of them can ever
// validate, so they all share one class and one (rejected) representative.
// A real signature is at least two bytes (a 0xFF level terminator per
// level), so the single byte cannot collide with one.
var boundsFailSig = []byte{0x00}

// signature computes nest's model-equivalence signature — byte for byte
// core.Evaluator.AppendSignature of the nest's greedy mapping. The returned
// slice is the canonicalizer's scratch, valid until the next signature
// call.
func (c *canonicalizer) signature(nest loops.Nest) []byte {
	if !c.b.assign(nest) {
		return boundsFailSig
	}
	return c.b.signature()
}

// intern records nest's class and reports whether an earlier nest of the
// same class was already seen (true = nest is a duplicate to merge).
func (c *canonicalizer) intern(nest loops.Nest) bool {
	_, dup := c.internSig(nest)
	return dup
}

// internSig is intern exposing the class signature alongside the duplicate
// verdict, for callers that record class identities (the sharded walk). The
// returned slice is the canonicalizer's scratch, valid until the next
// signature/intern call.
func (c *canonicalizer) internSig(nest loops.Nest) ([]byte, bool) {
	sig := c.signature(nest)
	return sig, !c.seen.Insert(sig)
}

// mapNest points the canonicalizer's mapping at nest with its greedy
// boundaries, reporting false when the assignment fails. The boundaries
// alias the bounder's storage, valid until its next assignment.
func (c *canonicalizer) mapNest(nest loops.Nest) bool {
	c.m.Temporal = nest
	if !c.b.assign(nest) {
		return false
	}
	c.b.bounds(&c.m)
	return true
}

// score evaluates nest exactly the way the search workers do — greedy
// bounds, the table's validity check, then the full model (bwAware) or the
// baseline — and reports whether the nest is a valid mapping at all.
func (c *canonicalizer) score(nest loops.Nest, bwAware bool) (float64, bool) {
	if !c.mapNest(nest) || !c.b.valid() {
		return 0, false
	}
	if !bwAware {
		return c.ev.LowerBound(&c.prob), true
	}
	s, err := c.ev.ScoreLatency(&c.prob)
	if err != nil {
		return 0, false
	}
	return s, true
}

// boundFloor returns the mapping-independent part of the generator's lower
// bound: the preload+offload cycles of the EMPTY temporal nest. No real
// nest can undercut it — adding temporal loops only grows the per-level
// resident tiles (TileElems is monotone in the below-nest's dim products)
// and hop cycles are monotone in tile size. LowerBound of the empty nest is
// 1 (its CC_spatial) + that floor, hence the -1.
func (c *canonicalizer) boundFloor() float64 {
	if !c.mapNest(nil) {
		return 0
	}
	return c.ev.LowerBound(&c.prob) - 1
}

// probeOrders are the two fixed loop orders (innermost first) scored before
// the walk to seed the generator's pruning bound: the canonical declaration
// order and the annealer's heuristic order (reduction innermost).
var probeOrders = [2][loops.NumDims]loops.Dim{
	{loops.B, loops.K, loops.C, loops.OY, loops.OX, loops.FY, loops.FX},
	{loops.C, loops.B, loops.OX, loops.OY, loops.K, loops.FX, loops.FY},
}

// probeNests builds the unpadded one-loop-per-dimension nests in the two
// probe orders. Both are members of the enumeration space (the unsplit
// alternative exists for every dimension, and every ordering of a block
// multiset is walked), which is what makes their scores sound pruning
// bounds: the space's optimum can never exceed a member's score.
func probeNests(extents *[loops.NumDims]int64) [2]loops.Nest {
	var out [2]loops.Nest
	for i, ord := range probeOrders {
		for _, d := range ord {
			if extents[d] > 1 {
				out[i] = append(out[i], loops.Loop{Dim: d, Size: extents[d]})
			}
		}
	}
	return out
}
