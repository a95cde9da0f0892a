package experiments

import (
	"context"
	"fmt"

	"repro/internal/dse"
)

// Case3Result holds the three Fig. 8 panels: the bandwidth-unaware design
// space (a), and the bandwidth-aware spaces at low (b) and high (c) GB
// bandwidth.
type Case3Result struct {
	Unaware []dse.Point // Fig. 8(a): BW-unaware model at 128 bit/cycle
	Low     []dse.Point // Fig. 8(b): BW-aware, GB 128 bit/cycle
	High    []dse.Point // Fig. 8(c): BW-aware, GB 1024 bit/cycle
}

// Case3Options tunes the sweep size.
type Case3Options struct {
	// Quick shrinks the memory pool (for tests and benchmarks).
	Quick bool
	// MaxCandidates bounds the per-point mapping search.
	MaxCandidates int
	// NoReduce disables the symmetry-reduced enumeration in the per-point
	// searches; results are identical, only search time changes.
	NoReduce bool
}

// Case3 reproduces Fig. 8: sweep the architecture pool under the three
// model configurations.
func Case3(opt *Case3Options) (*Case3Result, error) {
	if opt == nil {
		opt = &Case3Options{}
	}
	build := func(gbBW int64, aware bool) (*dse.Config, error) {
		cfg := dse.DefaultConfig(gbBW, aware)
		if opt.Quick {
			cfg.RegMults = []int64{4}
			cfg.WLBKiB = []int64{16, 64}
			cfg.ILBKiB = []int64{8, 32}
			cfg.MaxCandidates = 200
		}
		if opt.MaxCandidates > 0 {
			cfg.MaxCandidates = opt.MaxCandidates
		}
		cfg.NoReduce = opt.NoReduce
		return cfg, nil
	}
	out := &Case3Result{}
	for _, panel := range []struct {
		dst   *[]dse.Point
		gbBW  int64
		aware bool
	}{
		{&out.Unaware, 128, false},
		{&out.Low, 128, true},
		{&out.High, 1024, true},
	} {
		cfg, err := build(panel.gbBW, panel.aware)
		if err != nil {
			return nil, err
		}
		pts, err := dse.Sweep(context.Background(), cfg)
		if err != nil {
			return nil, fmt.Errorf("case3: sweep gbBW=%d aware=%v: %w", panel.gbBW, panel.aware, err)
		}
		*panel.dst = pts
	}
	return out, nil
}
