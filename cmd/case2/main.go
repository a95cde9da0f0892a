// Command case2 reproduces paper Fig. 7 (Case study 2 — workload size vs
// latency): a B/K/C layer sweep on the fixed scaled-down accelerator,
// reporting the operand profile (panel a), the modeled latency breakdown
// (panel b) and the discrepancy a bandwidth-unaware model would incur.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/mapper"
	"repro/internal/memo"
	"repro/internal/prof"
	"repro/internal/report"
)

func main() {
	var (
		budget   = flag.Int("budget", 20000, "mapping search budget per layer")
		csv      = flag.Bool("csv", false, "CSV output")
		grid     = flag.Bool("grid", false, "full BxKxC grid with a discrepancy heatmap")
		cacheDir = flag.String("cachedir", "", `on-disk search cache: directory path, or "auto" for the user cache dir (empty = memory only)`)
	)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fatal("%v", err)
	}
	defer prof.Stop()

	if *cacheDir != "" {
		dir, err := mapper.EnableDiskCache(*cacheDir)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("disk cache: %s\n", dir)
	}
	defer func() { fmt.Println(memo.Default.Counters()) }()

	if *grid {
		extents := []int64{8, 32, 128, 512}
		cells, err := experiments.Case2Grid(extents, &experiments.Case2Options{
			MaxCandidates: *budget / 4,
		})
		if err != nil {
			fatal("%v", err)
		}
		rows, cols, vals := experiments.DiscrepancyMatrix(cells, extents)
		report.Heatmap(os.Stdout,
			"BW-unaware under-estimation (Real/Unaware) over the full grid; columns = C",
			rows, cols, vals)
		worst := cells[0]
		for _, c := range cells {
			if c.Discrepancy > worst.Discrepancy {
				worst = c
			}
		}
		fmt.Printf("\nworst cell: (%d,%d,%d) at %.2fx (paper: 9.2x at (512,512,8))\n",
			worst.B, worst.K, worst.C, worst.Discrepancy)
		return
	}

	rows, err := experiments.Case2(&experiments.Case2Options{MaxCandidates: *budget})
	if err != nil {
		fatal("%v", err)
	}

	a := report.NewTable("Fig. 7(a) — workload profile",
		"layer (B,K,C)", "MAC ops", "W bytes", "I bytes", "O bytes", "total bytes")
	for _, r := range rows {
		a.Add(r.Name, r.MACs, r.WBits/8, r.IBits/8, r.OBits/8, r.TotalBits/8)
	}

	b := report.NewTable("\nFig. 7(b) — latency breakdown [cycles]",
		"layer (B,K,C)", "preload", "ideal", "spatial stall", "temporal stall", "offload",
		"Real", "w/o stall", "disc.")
	for _, r := range rows {
		b.Add(r.Name, r.Preload, r.Ideal, r.SpatialStall, r.TemporalStall, r.Offload,
			r.Real, r.Unaware, fmt.Sprintf("%.2fx", r.Discrepancy))
	}

	if *csv {
		fmt.Print(a.CSV())
		fmt.Print(b.CSV())
		return
	}
	a.Write(os.Stdout)
	b.Write(os.Stdout)

	names := make([]string, len(rows))
	real := make([]float64, len(rows))
	for i, r := range rows {
		names[i] = r.Name
		real[i] = r.Real
	}
	fmt.Println()
	report.Bar(os.Stdout, "Real latency [cycles] (tracks total data size, not MAC count)", names, real, 50)

	fmt.Println("\nNote the output-dominant small-C layers: without temporal-stall modeling")
	for _, r := range rows {
		if r.Discrepancy > 3 {
			fmt.Printf("  %-14s would be under-estimated %.1fx\n", r.Name, r.Discrepancy)
		}
	}
	fmt.Println("(paper: 7.4x at (128,128,8) and 9.2x at (512,512,8))")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "case2: "+format+"\n", args...)
	prof.Stop() // os.Exit skips defers; flush any profiles first
	os.Exit(1)
}
