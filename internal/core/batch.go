package core

import (
	"fmt"
	"math"
)

// ScoreBatch scores a slab of problems — the mapper ships candidates to its
// workers in batches of 64 sibling nests — writing ScoreLatency(ps[i]) into
// out[i], or NaN where that problem is not evaluable (the per-problem error
// is deliberately collapsed: a batch member that cannot be scored is simply
// not a candidate). The scores are bit-identical to len(ps) individual
// ScoreLatency calls: the batch runs the same Step 1–3 arithmetic in the
// same order per problem, and the structure-of-arrays win comes from the
// evaluator's Step-1 memo staying hot across the slab — sibling nests share
// per-operand content (opCache, including its consecutive-key fast path), so
// a batch member's Step 1 is often just the key probes, and its Step 2 is a
// handful of O(k) window unions (package periodic).
//
// Like every Evaluator method, ScoreBatch is not safe for concurrent use.
func (ev *Evaluator) ScoreBatch(ps []*Problem, out []float64) error {
	if len(out) < len(ps) {
		return fmt.Errorf("core: ScoreBatch output slab %d smaller than batch %d", len(out), len(ps))
	}
	for i, p := range ps {
		s, err := ev.ScoreLatency(p)
		if err != nil {
			out[i] = math.NaN()
			continue
		}
		out[i] = s
	}
	return nil
}
