// Package obs is the model's observability layer: a structured stall
// explainer derived from a scored mapping (explain.go), a Chrome/Perfetto
// trace-event exporter for the full port timeline (perfetto.go), and the
// search-telemetry hook interface the mapper's evaluation pipeline emits
// events through (this file).
//
// Everything here is strictly observational. The hook contract is: with
// hooks unset the search pays a single nil pointer check per event site and
// allocates nothing; with hooks set, the selected mapping, its score and
// every exact Stats counter are bit-identical to a hookless run (guarded by
// TestHooksDoNotPerturbSearch in internal/mapper). Hook callbacks may fire
// concurrently from worker goroutines and must be safe for concurrent use.
package obs

import "time"

// SearchProgress is a point-in-time snapshot of a running mapping search,
// emitted by the generator every progress interval and once more when the
// search completes. Counter semantics match mapper.Stats.
type SearchProgress struct {
	// Walked counts the loop orderings visited so far (representatives
	// plus merged class members) — the quantity MaxCandidates caps.
	Walked int64
	// Generated counts nests handed to evaluation (class representatives).
	Generated int64
	// ClassesMerged counts orderings absorbed into an earlier
	// representative's model-equivalence class.
	ClassesMerged int64
	// SubtreesPruned counts factorization subtrees dropped by the
	// generator's probe bound before their orderings existed.
	SubtreesPruned int64
	// Valid and Pruned are the workers' running totals at snapshot time
	// (approximate while workers race the generator; exact in the final
	// snapshot).
	Valid  int64
	Pruned int64
	// BestCC is the best objective score seen so far; +Inf until a valid
	// candidate lands.
	BestCC float64
	// Elapsed is the wall-clock time since the search started.
	Elapsed time.Duration
	// Done marks the final snapshot (counters are exact from this point).
	Done bool
}

// SearchHooks receives telemetry events from a mapping search. Any field
// may be nil; a nil *SearchHooks disables telemetry entirely (the fast
// path). Hooks observe — they must not block for long and cannot influence
// the search result.
type SearchHooks struct {
	// Phase reports a completed pipeline phase and its wall-clock
	// duration: "generate" (the enumeration walk: canonicalization, bounds
	// and batching, without the serial path's inline scoring), "score" (a
	// one-worker search's inline batch scoring, summed), "search" (the
	// whole Best/Enumerate call) or "anneal" (a whole Anneal call).
	Phase func(name string, d time.Duration)
	// Progress receives periodic snapshots from the generator (single
	// goroutine) and one final snapshot with Done=true.
	Progress func(p SearchProgress)
	// ImprovedBest fires when a worker lowers the global best score.
	// Delivery order across workers is not guaranteed; scores are
	// monotonically decreasing only per the internal CAS, not per
	// callback arrival.
	ImprovedBest func(score float64, seq int64)
	// AnnealProgress reports a chain's state every annealing progress
	// interval: chain index, iteration, and the chain's best score so
	// far. Chains run concurrently.
	AnnealProgress func(chain, iter int, best float64)
}

// EmitPhase calls Phase when set.
func (h *SearchHooks) EmitPhase(name string, d time.Duration) {
	if h != nil && h.Phase != nil {
		h.Phase(name, d)
	}
}

// EmitProgress calls Progress when set.
func (h *SearchHooks) EmitProgress(p SearchProgress) {
	if h != nil && h.Progress != nil {
		h.Progress(p)
	}
}

// EmitImprovedBest calls ImprovedBest when set.
func (h *SearchHooks) EmitImprovedBest(score float64, seq int64) {
	if h != nil && h.ImprovedBest != nil {
		h.ImprovedBest(score, seq)
	}
}

// EmitAnnealProgress calls AnnealProgress when set.
func (h *SearchHooks) EmitAnnealProgress(chain, iter int, best float64) {
	if h != nil && h.AnnealProgress != nil {
		h.AnnealProgress(chain, iter, best)
	}
}
