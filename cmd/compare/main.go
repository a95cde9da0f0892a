// Command compare evaluates one workload across every preset accelerator —
// the matmul engines (in-house, case-study), the row-stationary direct-conv
// machine and the TPU-like unified-buffer design — and reports latency,
// utilization, energy and dataflow class side by side: the "which
// architecture fits my layer" question the uniform model exists to answer.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/energy"
	"repro/internal/loops"
	"repro/internal/mapper"
	"repro/internal/memo"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/workload"
)

func main() {
	var (
		b        = flag.Int64("b", 1, "conv batch")
		k        = flag.Int64("k", 64, "output channels")
		c        = flag.Int64("c", 64, "input channels")
		oy       = flag.Int64("oy", 28, "output rows")
		ox       = flag.Int64("ox", 28, "output cols")
		fy       = flag.Int64("fy", 3, "filter rows")
		fx       = flag.Int64("fx", 3, "filter cols")
		budget   = flag.Int("budget", 8000, "mapping search budget per architecture")
		cacheDir = flag.String("cachedir", "", `on-disk search cache: directory path, or "auto" for the user cache dir (empty = memory only)`)
		nosym    = flag.Bool("nosym", false, "disable the symmetry-reduced enumeration (walk every ordering)")
	)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
	defer prof.Stop()

	if *cacheDir != "" {
		dir, err := mapper.EnableDiskCache(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(1)
		}
		fmt.Printf("disk cache: %s\n", dir)
	}
	defer func() { fmt.Println(memo.Default.Counters()) }()

	conv := workload.NewConv2D("conv", *b, *k, *c, *oy, *ox, *fy, *fx)
	fmt.Printf("workload: %s (%.1f MMACs)\n\n", conv.String(), float64(conv.TotalMACs())/1e6)

	type preset struct {
		hw      *arch.Arch
		spatial loops.Nest
		direct  bool // runs convolution directly (no Im2Col)
	}
	presets := []preset{
		{arch.InHouse(), arch.InHouseSpatial(), false},
		{arch.CaseStudy(), arch.CaseStudySpatial(), false},
		{arch.RowStationary(), arch.RowStationarySpatial(), true},
		{arch.TPULike(), arch.TPULikeSpatial(), false},
	}

	tb := report.NewTable("per-architecture verdict",
		"architecture", "MACs", "latency cc", "util %", "energy uJ", "cc/MMAC", "dataflow")
	for _, p := range presets {
		layer := conv
		if !p.direct {
			layer = workload.Im2Col(conv)
		}
		best, _, err := mapper.BestCached(context.Background(), &layer, p.hw, &mapper.Options{
			Spatial: p.spatial, BWAware: true, MaxCandidates: *budget, NoReduce: *nosym,
		})
		if err != nil {
			tb.Add(p.hw.Name, p.hw.MACs, "unmappable", "-", "-", "-", "-")
			continue
		}
		prob := &core.Problem{Layer: &layer, Arch: p.hw, Mapping: best.Mapping}
		var uj float64
		if e, err := energy.Evaluate(prob, nil); err == nil {
			uj = e.TotalPJ / 1e6
		}
		cls := dataflow.Classify(best.Mapping).Class
		tb.Add(p.hw.Name, p.hw.MACs, best.Result.CCTotal,
			100*best.Result.Utilization, uj,
			best.Result.CCTotal/(float64(conv.TotalMACs())/1e6), cls.String())
	}
	tb.Write(os.Stdout)
	fmt.Println("\ncc/MMAC normalizes latency by work: lower is better across array sizes.")
}
