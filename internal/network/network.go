// Package network extends the intra-layer latency model across whole DNNs —
// the paper's stated future work ("modeling and optimizing latency in
// cross-layer multi-core DNN mapping scenarios", Section VI). A network is
// an ordered sequence of layers executed on one accelerator; each layer is
// lowered (Im2Col), mapped with the per-layer optimizer, and priced with
// the intra-layer model. Two cross-layer effects are modeled:
//
//   - prefetch overlap: the next layer's weight pre-loading can hide under
//     the current layer's computation when the weight path (W-LB) is
//     double-buffered — the saved cycles are min(preload_{i+1}, busy_i);
//   - on-chip forwarding: when a layer's output and its successor's input
//     both fit in the global buffer alongside the working tiles, the
//     intermediate tensor never leaves the chip (this is the default
//     intra-layer assumption; the network model checks it and charges a
//     DRAM-style spill penalty otherwise).
package network

import (
	"context"
	"fmt"
	"log/slog"
	"strings"

	"repro/internal/alloc"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/loops"
	"repro/internal/mapper"
	"repro/internal/otrace"
	"repro/internal/par"
	"repro/internal/workload"
)

// energyEvaluate is the per-layer energy model, a variable so tests can
// inject failures (the energy model has no failing inputs reachable from a
// valid mapping).
var energyEvaluate = energy.Evaluate

// Network is an ordered sequence of layers with tensor dependencies
// layer[i] output -> layer[i+1] input.
type Network struct {
	Name   string
	Layers []workload.Layer
}

// Validate checks every layer.
func (n *Network) Validate() error {
	if len(n.Layers) == 0 {
		return fmt.Errorf("network %q has no layers", n.Name)
	}
	for i := range n.Layers {
		if err := n.Layers[i].Validate(); err != nil {
			return fmt.Errorf("network %q layer %d: %w", n.Name, i, err)
		}
	}
	return nil
}

// TotalMACs sums the whole-operator MAC work of all layers (head-batched
// attention matmuls count every head; elementwise passes contribute none).
func (n *Network) TotalMACs() int64 {
	var t int64
	for i := range n.Layers {
		t += n.Layers[i].WorkMACs()
	}
	return t
}

// Options tunes a network evaluation.
type Options struct {
	// MaxCandidates is the per-layer mapping search budget (default 6000).
	MaxCandidates int
	// Objective ranks per-layer mappings (default MinLatency).
	Objective mapper.Objective
	// NoPrefetch disables cross-layer weight prefetch overlap.
	NoPrefetch bool
	// SpillBWBits is the off-chip bandwidth used to price intermediate
	// tensors that do not fit on chip (default: the GB write port BW / 4,
	// a DRAM-ish derating).
	SpillBWBits int64
	// PlanGB enables the precise global-buffer allocation planner
	// (package alloc): tensors get liveness intervals and offsets, and
	// only tensors the planner actually spills are charged, replacing
	// the coarse per-boundary heuristic.
	PlanGB bool
	// Run overrides the executor of each per-layer mapping search (nil:
	// the in-process engine via mapper.BestCached). A fabric.Runner here
	// distributes every cold search across shards/nodes; the SearchFunc
	// bit-identity contract keeps the result independent of the executor.
	Run mapper.SearchFunc
}

// LayerResult is one layer's evaluation within the network.
type LayerResult struct {
	Layer    workload.Layer // the lowered (post-Im2Col) layer
	Original string         // original layer name
	// Candidate is the per-head mapping the search found. It is nil for
	// elementwise layers, which are bandwidth-bound and never enter the
	// mapper; their cost lives in BWBoundCC/ReadBits/WriteBits. For
	// head-batched layers (Layer.HeadCount() > 1) the candidate prices ONE
	// head; EffectiveCC/EnergyPJ scale it by the head count.
	Candidate *mapper.Candidate
	// BWBoundCC is an elementwise layer's streaming pass time; zero for
	// matmul-shaped layers.
	BWBoundCC float64
	// ReadBits/WriteBits are an elementwise layer's exact streamed traffic.
	ReadBits  int64
	WriteBits int64
	EnergyPJ  float64
	// EnergyErr records a failed energy model evaluation for this layer.
	// EnergyPJ is 0 (and excluded from Result.TotalPJ) when set — callers
	// rendering energy numbers should surface the error instead of showing
	// a silent zero.
	EnergyErr error
	// PrefetchSaved is the preload time hidden under the previous layer.
	PrefetchSaved float64
	// SpillCC is the extra time charged for off-chip intermediate
	// traffic when the layer boundary does not fit in the GB.
	SpillCC float64
	// EffectiveCC is the layer's contribution to the network latency.
	EffectiveCC float64
}

// Result is a whole-network evaluation.
type Result struct {
	Layers  []LayerResult
	TotalCC float64
	TotalPJ float64
	// IdealCC is the stall-free lower bound (sum of per-layer CC_ideal).
	IdealCC float64
	// PrefetchSavedCC totals the hidden preload time.
	PrefetchSavedCC float64
	// Utilization is IdealCC / TotalCC.
	Utilization float64
	// GBPlan is the buffer allocation when Options.PlanGB is set.
	GBPlan *alloc.Plan
}

// Evaluate runs every layer of the network through the mapper and the
// intra-layer model on one architecture, applying the cross-layer effects.
// Cancellation propagates into every per-layer mapping search; a canceled
// evaluation returns ctx.Err() and no partial result.
func Evaluate(ctx context.Context, n *Network, hw *arch.Arch, spatial loops.Nest, opt *Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if opt == nil {
		opt = &Options{}
	}
	maxCand := opt.MaxCandidates
	if maxCand <= 0 {
		maxCand = 6000
	}
	spillBW := opt.SpillBWBits
	if spillBW <= 0 {
		gb := outermost(hw)
		if gb != nil && len(gb.Ports) > 0 {
			spillBW = gb.Ports[len(gb.Ports)-1].BWBits / 4
		}
		if spillBW <= 0 {
			spillBW = 32
		}
	}

	res := &Result{}
	obj := opt.Objective
	needEnergy := true
	// Per-layer mapping searches are independent; run them under the shared
	// worker budget. Results land at their layer index and errors are
	// reported for the first failing layer, so the outcome is identical to
	// the old serial loop. The cross-layer passes below stay serial — they
	// chain layer i to layer i-1.
	layerRes := make([]LayerResult, len(n.Layers))
	layerErr := make([]error, len(n.Layers))
	par.ForEach(len(n.Layers), func(i int) {
		if ctx.Err() != nil {
			return // canceled: skip the remaining layers promptly
		}
		orig := n.Layers[i]
		if orig.Kind.Elementwise() {
			// Bandwidth-bound pass: priced directly from byte traffic, no
			// mapping search (Candidate stays nil).
			cost, err := elemwiseCost(&orig, hw, nil)
			if err != nil {
				layerErr[i] = fmt.Errorf("network %q layer %s: %w", n.Name, orig.Name, err)
				return
			}
			layerRes[i] = LayerResult{
				Layer:     orig,
				Original:  orig.Name,
				BWBoundCC: cost.CC,
				ReadBits:  cost.ReadBits,
				WriteBits: cost.WriteBits,
				EnergyPJ:  cost.EnergyPJ,
			}
			return
		}
		lowered := workload.Im2Col(orig)
		// The mapper prices the PER-HEAD problem: strip the head multiplicity
		// so attention layers that differ only in head count share one
		// memoized search (the shape key encodes HeadCount).
		search := lowered
		search.Heads = 0
		// Cached search: a network repeats layer shapes (residual stages,
		// repeated blocks), and the memo key ignores layer names — repeats
		// are served from memory, concurrent duplicates singleflight.
		cand, _, err := mapper.BestCachedVia(ctx, &search, hw, &mapper.Options{
			Spatial:       spatial,
			BWAware:       true,
			Objective:     obj,
			MaxCandidates: maxCand,
		}, opt.Run)
		if err != nil {
			layerErr[i] = fmt.Errorf("network %q layer %s: %w", n.Name, orig.Name, err)
			return
		}
		lr := LayerResult{
			Layer:     lowered,
			Original:  orig.Name,
			Candidate: cand,
		}
		if needEnergy {
			p := &core.Problem{Layer: &search, Arch: hw, Mapping: cand.Mapping}
			if eb, err := energyEvaluate(p, nil); err == nil {
				lr.EnergyPJ = eb.TotalPJ * float64(lowered.HeadCount())
			} else {
				// A failed energy model must not fail the latency evaluation,
				// but it must not silently report 0 pJ either: record it on
				// the layer and say so.
				lr.EnergyErr = fmt.Errorf("network %q layer %s: energy model: %w", n.Name, orig.Name, err)
				slog.Warn("energy evaluation failed; layer reports no energy",
					"network", n.Name, "layer", orig.Name, "err", err,
					"trace_id", otrace.IDString(ctx))
			}
		}
		layerRes[i] = lr
	})
	// A cancellation outranks whatever per-layer error it surfaced as (a
	// skipped layer has a nil Candidate, not a specific failure).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range layerErr {
		if err != nil {
			return nil, err
		}
	}
	res.Layers = layerRes

	// Precise GB planning (optional): tensors with liveness intervals.
	var plannedSpill map[int]int64 // layer index -> spilled boundary bits
	if opt.PlanGB {
		plan, spills, err := planGB(res.Layers, hw)
		if err != nil {
			return nil, err
		}
		res.GBPlan = plan
		plannedSpill = spills
	}

	// Cross-layer effects.
	for i := range res.Layers {
		lr := &res.Layers[i]
		heads := float64(lr.Layer.HeadCount())
		if lr.Candidate == nil {
			// Elementwise: the streaming pass IS the layer; it is already
			// bandwidth-bound, so it is its own lower bound.
			lr.EffectiveCC = lr.BWBoundCC
			res.IdealCC += lr.BWBoundCC
		} else {
			r := lr.Candidate.Result
			lr.EffectiveCC = r.CCTotal * heads
			res.IdealCC += r.CCIdeal * heads

			// Weight prefetch: layer i's preload hides under layer i-1's
			// computation when the weight path is double-buffered. Head-
			// batched layers and elementwise predecessors opt out: the per-
			// head W is re-loaded every head, and an elementwise pass
			// saturates the very ports the preload would use.
			if !opt.NoPrefetch && i > 0 && heads == 1 && weightPathBuffered(hw) {
				if pc := res.Layers[i-1].Candidate; pc != nil && res.Layers[i-1].Layer.HeadCount() == 1 {
					prev := pc.Result
					busy := float64(prev.CCSpatial) + prev.SSOverall
					saved := r.Preload
					if saved > busy {
						saved = busy
					}
					lr.PrefetchSaved = saved
					lr.EffectiveCC -= saved
					res.PrefetchSavedCC += saved
				}
			}
		}

		// Spill: the boundary tensor between layer i and i+1 must fit in
		// the outermost memory together with both layers' working sets.
		if opt.PlanGB {
			if bits := plannedSpill[i]; bits > 0 {
				// A spilled boundary goes off chip and comes back.
				lr.SpillCC = float64(loops.CeilDiv(2*bits, spillBW))
				lr.EffectiveCC += lr.SpillCC
			}
		} else if i+1 < len(res.Layers) {
			if spill := boundarySpillBits(hw, lr, &res.Layers[i+1]); spill > 0 {
				lr.SpillCC = float64(loops.CeilDiv(spill, spillBW))
				lr.EffectiveCC += lr.SpillCC
			}
		}

		res.TotalCC += lr.EffectiveCC
		res.TotalPJ += lr.EnergyPJ
	}
	if res.TotalCC > 0 {
		res.Utilization = res.IdealCC / res.TotalCC
	}
	return res, nil
}

// planGB builds the liveness tensors of the network schedule — per-layer
// weights (extended one step earlier when prefetch applies) and boundary
// activations — and runs the buffer planner. Returns the plan and the
// spilled boundary bits per producing layer.
func planGB(layers []LayerResult, hw *arch.Arch) (*alloc.Plan, map[int]int64, error) {
	gb := outermost(hw)
	if gb == nil {
		return nil, nil, fmt.Errorf("network: no outermost memory to plan")
	}
	prefetch := weightPathBuffered(hw)
	var tensors []alloc.Tensor
	actIdx := map[int]int{} // layer -> tensor index of its output activation
	for i := range layers {
		first := i
		if prefetch && i > 0 {
			first = i - 1
		}
		tensors = append(tensors, alloc.Tensor{
			Name:     fmt.Sprintf("w[%s]", layers[i].Original),
			Bits:     layers[i].Layer.OperandBits(loops.W),
			FirstUse: first,
			LastUse:  i,
		})
		last := i
		if i+1 < len(layers) {
			last = i + 1
		}
		actIdx[i] = len(tensors)
		tensors = append(tensors, alloc.Tensor{
			Name:     fmt.Sprintf("act[%s]", layers[i].Original),
			Bits:     layers[i].Layer.OperandBits(loops.O),
			FirstUse: i,
			LastUse:  last,
		})
	}
	plan, err := alloc.Build(tensors, gb.CapacityBits)
	if err != nil {
		return nil, nil, err
	}
	spills := map[int]int64{}
	for i, ti := range actIdx {
		if plan.Placements[ti].Spill && i+1 < len(layers) {
			spills[i] = plan.Placements[ti].Tensor.Bits
		}
	}
	return plan, spills, nil
}

// outermost returns the top memory of the W chain (the GB in the presets).
func outermost(hw *arch.Arch) *arch.Memory {
	chain := hw.Chain[loops.W]
	if len(chain) == 0 {
		return nil
	}
	return hw.MemoryByName(chain[len(chain)-1])
}

// weightPathBuffered reports whether any intermediate W memory is
// double-buffered (enabling next-layer prefetch).
func weightPathBuffered(hw *arch.Arch) bool {
	for _, m := range hw.ChainMems(loops.W) {
		if m != nil && m.DoubleBuffered {
			return true
		}
	}
	return false
}

// boundarySpillBits returns how many bits of the boundary tensor overflow
// the outermost memory, given both adjacent layers' resident footprints.
func boundarySpillBits(hw *arch.Arch, cur, next *LayerResult) int64 {
	gb := outermost(hw)
	if gb == nil {
		return 0
	}
	// The boundary tensor is cur's output == next's input.
	boundary := cur.Layer.OperandBits(loops.O)
	// Working set: cur's W + next's W resident tiles at the top level are
	// streamed, so approximate the steady-state GB pressure by the
	// boundary tensor plus both layers' weight footprints (weights must
	// be on chip to avoid a second spill).
	wBits := cur.Layer.OperandBits(loops.W) + next.Layer.OperandBits(loops.W)
	over := boundary + wBits - gb.CapacityBits
	if over < 0 {
		return 0
	}
	if over > boundary {
		over = boundary
	}
	return over
}

// Report renders a per-layer table plus totals.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %12s %10s %10s %10s %8s\n",
		"layer", "latency cc", "prefetch", "spill cc", "energy nJ", "util %")
	for i := range r.Layers {
		lr := &r.Layers[i]
		util := 100.0 // elementwise passes stream at full port speed
		if lr.Candidate != nil {
			util = 100 * lr.Candidate.Result.Utilization
		}
		fmt.Fprintf(&b, "%-14s %12.0f %10.0f %10.0f %10.1f %8.1f\n",
			lr.Original, lr.EffectiveCC, lr.PrefetchSaved, lr.SpillCC,
			lr.EnergyPJ/1e3, util)
	}
	fmt.Fprintf(&b, "network total: %.0f cc (ideal %.0f, utilization %.1f%%), %.1f uJ, %.0f cc hidden by prefetch\n",
		r.TotalCC, r.IdealCC, 100*r.Utilization, r.TotalPJ/1e6, r.PrefetchSavedCC)
	return b.String()
}

// HandTracking returns the validation workload as a network.
func HandTracking() *Network {
	return &Network{Name: "hand-tracking", Layers: workload.HandTrackingSuite()}
}
