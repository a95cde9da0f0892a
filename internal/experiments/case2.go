package experiments

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/loops"
	"repro/internal/mapper"
	"repro/internal/workload"
)

// Case2Row is one workload point of Fig. 7: the layer's operand profile
// (panel a) and its latency breakdown under the best mapping (panel b),
// plus the bandwidth-unaware estimate (the paper's cyan dotted line).
type Case2Row struct {
	Name      string
	MACs      int64
	WBits     int64
	IBits     int64
	OBits     int64
	TotalBits int64

	Ideal         float64 // CC_ideal
	Preload       float64
	SpatialStall  float64
	TemporalStall float64
	Offload       float64
	Real          float64 // full model CC_total
	Unaware       float64 // BW-unaware CC_total
	Discrepancy   float64 // Real / Unaware
	OutputStat    bool    // best mapping fully output-stationary at O-Reg
}

// Case2Options tunes the sweep.
type Case2Options struct {
	MaxCandidates int // per-layer mapping search budget (default 20000)
	// NoReduce disables the symmetry-reduced enumeration in the per-layer
	// searches; results are identical, only search time changes.
	NoReduce bool
}

// Case2 reproduces Fig. 7: sweep the (B, K, C) layer grid on the fixed
// scaled-down accelerator, optimizing the mapping per layer, and report the
// operand profile and the latency breakdown.
func Case2(opt *Case2Options) ([]Case2Row, error) {
	if opt == nil {
		opt = &Case2Options{}
	}
	maxCand := opt.MaxCandidates
	if maxCand <= 0 {
		maxCand = 20000
	}
	hw := arch.CaseStudy()
	sp := arch.CaseStudySpatial()

	var rows []Case2Row
	for _, l := range workload.Case2Sweep() {
		layer := l
		best, _, err := mapper.BestCached(context.Background(), &layer, hw, &mapper.Options{
			Spatial: sp, BWAware: true, MaxCandidates: maxCand, NoReduce: opt.NoReduce,
		})
		if err != nil {
			return nil, fmt.Errorf("case2: %s: %w", l.Name, err)
		}
		r := best.Result
		p := &core.Problem{Layer: &layer, Arch: hw, Mapping: best.Mapping}
		un, err := core.EvaluateBWUnaware(p)
		if err != nil {
			return nil, fmt.Errorf("case2: %s baseline: %w", l.Name, err)
		}
		tr := best.Mapping.OutputTrafficAt(0)
		rows = append(rows, Case2Row{
			Name:          l.Name,
			MACs:          l.TotalMACs(),
			WBits:         l.OperandBits(loops.W),
			IBits:         l.OperandBits(loops.I),
			OBits:         l.OperandBits(loops.O),
			TotalBits:     l.TotalDataBits(),
			Ideal:         r.CCIdeal,
			Preload:       r.Preload,
			SpatialStall:  r.SpatialStall,
			TemporalStall: r.SSOverall,
			Offload:       r.Offload,
			Real:          r.CCTotal,
			Unaware:       un.CCTotal,
			Discrepancy:   r.CCTotal / un.CCTotal,
			OutputStat:    tr.ReadBacks == 0,
		})
	}
	return rows, nil
}
