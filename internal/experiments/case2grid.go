package experiments

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/par"
	"repro/internal/workload"
)

// GridCell is one (B, K, C) point of the full Case-2 grid.
type GridCell struct {
	B, K, C     int64
	Real        float64
	Unaware     float64
	Discrepancy float64
}

// Case2Grid runs the full Fig. 7 axis: every (B, K, C) combination from the
// given extents on the fixed case-study accelerator, with per-point mapping
// optimization, in parallel. It returns cells in row-major (B-major, then
// K, then C) order. A nil opt uses the defaults; the grid's per-point
// search budget default is 1500 (smaller than Case2's — the grid has 64
// points).
func Case2Grid(extents []int64, opt *Case2Options) ([]GridCell, error) {
	if len(extents) == 0 {
		extents = []int64{8, 32, 128, 512}
	}
	if opt == nil {
		opt = &Case2Options{}
	}
	maxCandidates := opt.MaxCandidates
	if maxCandidates <= 0 {
		maxCandidates = 1500
	}
	hw := arch.CaseStudy()
	sp := arch.CaseStudySpatial()

	var cells []GridCell
	for _, b := range extents {
		for _, k := range extents {
			for _, c := range extents {
				cells = append(cells, GridCell{B: b, K: k, C: c})
			}
		}
	}

	errs := make([]error, len(cells))
	par.ForEach(len(cells), func(i int) {
		cell := &cells[i]
		l := workload.NewMatMul(
			fmt.Sprintf("(%d,%d,%d)", cell.B, cell.K, cell.C),
			cell.B, cell.K, cell.C)
		best, _, err := mapper.BestCached(context.Background(), &l, hw, &mapper.Options{
			Spatial: sp, BWAware: true, Pow2Splits: true,
			MaxCandidates: maxCandidates,
		})
		if err != nil {
			errs[i] = fmt.Errorf("case2grid %s: %w", l.Name, err)
			return
		}
		un, err := core.EvaluateBWUnaware(&core.Problem{
			Layer: &l, Arch: hw, Mapping: best.Mapping,
		})
		if err != nil {
			errs[i] = err
			return
		}
		cell.Real = best.Result.CCTotal
		cell.Unaware = un.CCTotal
		cell.Discrepancy = cell.Real / cell.Unaware
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// DiscrepancyMatrix reshapes grid cells into a (B,K)-rows x C-columns
// matrix of discrepancies for heatmap rendering.
func DiscrepancyMatrix(cells []GridCell, extents []int64) (rows []string, cols []string, vals [][]float64) {
	byKey := map[[3]int64]GridCell{}
	for _, c := range cells {
		byKey[[3]int64{c.B, c.K, c.C}] = c
	}
	for _, c := range extents {
		cols = append(cols, fmt.Sprint(c))
	}
	for _, b := range extents {
		for _, k := range extents {
			rows = append(rows, fmt.Sprintf("B%d K%d", b, k))
			var row []float64
			for _, c := range extents {
				row = append(row, byKey[[3]int64{b, k, c}].Discrepancy)
			}
			vals = append(vals, row)
		}
	}
	return rows, cols, vals
}
