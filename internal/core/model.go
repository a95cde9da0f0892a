package core

import (
	"fmt"
	"strings"
)

// Scenario classifies the computation phase per paper Fig. 1(b).
type Scenario uint8

// The four computation-phase scenarios of Fig. 1(b).
const (
	// Scenario1: spatially and temporally fully mapped — CC = CC_ideal.
	Scenario1 Scenario = 1 + iota
	// Scenario2: temporally full, spatially under-mapped — CC = CC_spatial.
	Scenario2
	// Scenario3: spatially full, temporally under-mapped — CC = CC_ideal + SS_overall.
	Scenario3
	// Scenario4: under-mapped in both — CC = CC_spatial + SS_overall.
	Scenario4
)

// String names the scenario.
func (s Scenario) String() string {
	if s >= Scenario1 && s <= Scenario4 {
		return fmt.Sprintf("scenario %d", int(s))
	}
	return fmt.Sprintf("Scenario(%d)", uint8(s))
}

// Result is a complete latency evaluation of one (layer, arch, mapping)
// point.
type Result struct {
	// CCIdeal is Total MAC ops / MAC array size (Fig. 1(b) scenario 1).
	CCIdeal float64
	// CCSpatial is the computation-phase cycle count assuming no temporal
	// stall: the product of all temporal loop iterations.
	CCSpatial int64
	// SpatialStall = CCSpatial - CCIdeal (>= 0 for valid mappings).
	SpatialStall float64
	// SSOverall is the Step-3 temporal stall (clamped at 0).
	SSOverall float64
	// Preload and Offload are the data pre-loading / offloading phase
	// cycles (Fig. 1(a)).
	Preload float64
	// Offload is the final output write-back time.
	Offload float64
	// CCTotal = CCSpatial + SSOverall + Preload + Offload.
	CCTotal float64

	// Utilization is CC_ideal / CC_total; SpatialUtilization and
	// TemporalUtilization isolate the two loss sources.
	Utilization         float64
	SpatialUtilization  float64
	TemporalUtilization float64

	// Scenario classifies the computation phase.
	Scenario Scenario

	// Diagnostics for bottleneck analysis.
	Endpoints []*Endpoint
	Ports     []*PortStall
	Memories  []*MemStall
	// SSRaw is the pre-clamp integrated stall (can be negative slack).
	SSRaw float64
}

// Evaluate runs the full 3-step latency model. The mapping is assumed to be
// valid for the layer and architecture (call Mapping.Validate first; the
// model itself re-checks only what it needs to stay well-defined).
//
// Evaluate runs a throwaway Evaluator, so the returned Result owns all of
// its diagnostic slices. Repeated evaluations (mapping searches, sweeps)
// should hold one Evaluator per goroutine and use its methods, which reuse
// every internal buffer.
func Evaluate(p *Problem) (*Result, error) {
	var ev Evaluator
	return ev.Evaluate(p)
}

// Report renders a multi-line human-readable breakdown.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "latency: %.0f cc total (%s)\n", r.CCTotal, r.Scenario)
	fmt.Fprintf(&b, "  ideal compute : %.1f cc\n", r.CCIdeal)
	fmt.Fprintf(&b, "  spatial stall : %.1f cc\n", r.SpatialStall)
	fmt.Fprintf(&b, "  temporal stall: %.1f cc (raw %+.1f)\n", r.SSOverall, r.SSRaw)
	fmt.Fprintf(&b, "  preload       : %.0f cc\n", r.Preload)
	fmt.Fprintf(&b, "  offload       : %.0f cc\n", r.Offload)
	fmt.Fprintf(&b, "  utilization   : %.1f%% (spatial %.1f%%, temporal %.1f%%)\n",
		100*r.Utilization, 100*r.SpatialUtilization, 100*r.TemporalUtilization)
	for _, ms := range r.Memories {
		fmt.Fprintf(&b, "  mem %-8s SS %+.1f\n", ms.MemName, ms.SS)
	}
	return b.String()
}

// BottleneckPort returns the port with the largest combined stall, or nil
// when the evaluation produced no stalling port.
func (r *Result) BottleneckPort() *PortStall {
	var best *PortStall
	for _, ps := range r.Ports {
		if best == nil || ps.SSComb > best.SSComb {
			best = ps
		}
	}
	return best
}
