// Command case3 reproduces paper Fig. 8 (Case study 3 — hardware
// architecture design space vs latency): a latency/area sweep over MAC
// array sizes and a memory pool, contrasting the bandwidth-unaware model
// (panel a) with the bandwidth-aware model at 128 bit/cycle (panel b) and
// 1024 bit/cycle (panel c) global-buffer bandwidth.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/mapper"
	"repro/internal/memo"
	"repro/internal/prof"
	"repro/internal/report"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "small memory pool (fast)")
		budget   = flag.Int("budget", 0, "mapping search budget per design point (0 = default)")
		plot     = flag.Bool("plot", true, "ASCII scatter plots")
		csv      = flag.Bool("csv", false, "CSV of all points")
		cacheDir = flag.String("cachedir", "", `on-disk search cache: directory path, or "auto" for the user cache dir (empty = memory only)`)
		nosym    = flag.Bool("nosym", false, "disable the symmetry-reduced enumeration (walk every ordering)")
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

	r, err := experiments.Case3(&experiments.Case3Options{
		Quick: *quick, MaxCandidates: *budget, NoReduce: *nosym,
	})
	if err != nil {
		fatal("%v", err)
	}

	panels := []struct {
		name string
		pts  []dse.Point
	}{
		{"Fig. 8(a) — BW-unaware model, GB 128 bit/cycle", r.Unaware},
		{"Fig. 8(b) — BW-aware model, GB 128 bit/cycle", r.Low},
		{"Fig. 8(c) — BW-aware model, GB 1024 bit/cycle", r.High},
	}
	arrayIdx := map[string]int{"16x16": 0, "32x32": 1, "64x64": 2}
	glyphs := []rune{'.', 'o', '#'}

	for _, p := range panels {
		fmt.Println(p.name)
		valid := 0
		for _, pt := range p.pts {
			if pt.Valid {
				valid++
			}
		}
		fmt.Printf("  %d designs evaluated, %d mapped successfully\n", len(p.pts), valid)

		if *csv {
			tb := report.NewTable("", "arch", "array", "area mm2", "latency cc", "mapping")
			for _, pt := range p.pts {
				if pt.Valid {
					tb.Add(pt.Arch.Name, pt.Array, pt.Areamm2, pt.Latency, pt.Mapping)
				}
			}
			fmt.Print(tb.CSV())
		}

		best := dse.BestPerArray(p.pts)
		tb := report.NewTable("  best design per array size", "array", "latency cc", "area mm2", "arch")
		for _, arr := range []string{"16x16", "32x32", "64x64"} {
			if b, ok := best[arr]; ok {
				tb.Add(arr, b.Latency, b.Areamm2, b.Arch.Name)
			}
		}
		tb.Write(os.Stdout)

		front := dse.Pareto(p.pts)
		fmt.Printf("  Pareto front (%d points):", len(front))
		for _, f := range front {
			fmt.Printf(" [%.3f mm2, %.0f cc, %s]", f.Areamm2, f.Latency, f.Array)
		}
		fmt.Println()

		if *plot {
			var xs, ys []float64
			var series []int
			for _, pt := range p.pts {
				if !pt.Valid {
					continue
				}
				xs = append(xs, pt.Areamm2)
				ys = append(ys, pt.Latency)
				series = append(series, arrayIdx[pt.Array])
			}
			report.Scatter(os.Stdout, "  latency vs area ('.'=16x16  'o'=32x32  '#'=64x64)",
				xs, ys, series, glyphs, 72, 18)
		}
		fmt.Println()
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "case3: "+format+"\n", args...)
	prof.Stop() // os.Exit skips defers; flush any profiles first
	os.Exit(1)
}
