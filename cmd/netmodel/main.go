// Command netmodel evaluates a whole DNN on one accelerator with the
// cross-layer extension of the uniform latency model: per-layer mapping
// optimization, weight-prefetch overlap between consecutive layers, and
// off-chip spill accounting for intermediate tensors.
//
// Usage:
//
//	netmodel [-arch inhouse|casestudy] [-net handtracking] [-budget N]
//	         [-noprefetch] [-objective latency|energy|edp] [-explain]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/loops"
	"repro/internal/mapper"
	"repro/internal/memo"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/workload"
)

func main() {
	var (
		archName = flag.String("arch", "inhouse", "accelerator preset: inhouse or casestudy")
		netName  = flag.String("net", "handtracking", "network preset: handtracking|resnet18|vgg16|mobilenetv2")
		netFile  = flag.String("netconfig", "", "JSON network file (overrides -net)")
		cores    = flag.Int("cores", 1, "number of accelerator cores")
		pipeline = flag.Bool("pipeline", false, "pipeline layers across cores instead of data parallelism")
		shareBW  = flag.Bool("sharebw", false, "cores share one GB interface (data-parallel mode)")
		budget   = flag.Int("budget", 6000, "per-layer mapping search budget")
		noPre    = flag.Bool("noprefetch", false, "disable cross-layer weight prefetch")
		planGB   = flag.Bool("plangb", false, "run the global-buffer allocation planner")
		scaling  = flag.Bool("scaling", false, "print the 1..cores strong-scaling curve")
		objName  = flag.String("objective", "latency", "per-layer mapping objective: latency|energy|edp")
		cacheDir = flag.String("cachedir", "", `on-disk search cache: directory path, or "auto" for the user cache dir (empty = memory only)`)
		nosym    = flag.Bool("nosym", false, "disable the symmetry-reduced enumeration (walk every ordering)")
		explain  = flag.Bool("explain", false, "print the per-layer critical-DTL table (stall attribution)")
	)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fatal("%v", err)
	}
	defer prof.Stop()

	if *cacheDir != "" {
		dir, err := mapper.EnableDiskCache(*cacheDir)
		if err != nil {
			fatal("cachedir: %v", err)
		}
		fmt.Printf("disk cache: %s\n", dir)
	}
	// Surface the evaluation-cache traffic after all output (early returns
	// included).
	defer func() { fmt.Println(memo.Default.Counters()) }()

	var hw *arch.Arch
	var sp loops.Nest
	switch *archName {
	case "inhouse":
		hw, sp = arch.InHouse(), arch.InHouseSpatial()
	case "casestudy":
		hw, sp = arch.CaseStudy(), arch.CaseStudySpatial()
	default:
		fatal("unknown arch %q", *archName)
	}

	var net *network.Network
	if *netFile != "" {
		data, err := os.ReadFile(*netFile)
		if err != nil {
			fatal("netconfig: %v", err)
		}
		net, err = config.UnmarshalNetwork(data)
		if err != nil {
			fatal("netconfig: %v", err)
		}
	}
	switch {
	case net != nil:
		// loaded from file
	default:
		switch *netName {
		case "handtracking":
			net = network.HandTracking()
		case "resnet18":
			net = &network.Network{Name: "resnet18", Layers: workload.ResNet18Suite()}
		case "vgg16":
			net = &network.Network{Name: "vgg16", Layers: workload.VGG16Suite()}
		case "mobilenetv2":
			net = &network.Network{Name: "mobilenetv2", Layers: workload.MobileNetV2Suite()}
		default:
			fatal("unknown network %q", *netName)
		}
	}

	var obj mapper.Objective
	switch *objName {
	case "latency":
		obj = mapper.MinLatency
	case "energy":
		obj = mapper.MinEnergy
	case "edp":
		obj = mapper.MinEDP
	default:
		fatal("unknown objective %q", *objName)
	}

	unique, mult, _ := workload.DedupLayers(net.Layers)
	fmt.Printf("network %s (%d layers, %d unique shapes, %.1f GMAC) on %s\n",
		net.Name, len(net.Layers), len(unique), float64(net.TotalMACs())/1e9, hw.Name)
	if len(unique) < len(net.Layers) {
		most, at := 0, 0
		for i, m := range mult {
			if m > most {
				most, at = m, i
			}
		}
		fmt.Printf("repeated shapes share one mapping search each (top repeat: %s x%d)\n",
			unique[at].Name, most)
	}
	fmt.Println()
	opts := network.Options{
		MaxCandidates: *budget,
		Objective:     obj,
		NoPrefetch:    *noPre,
		PlanGB:        *planGB,
		NoReduce:      *nosym,
	}
	if *scaling {
		curve, err := network.ScalingCurve(context.Background(), net, hw, sp, *cores, &network.MultiCoreOptions{
			Pipeline: *pipeline, ShareGBBandwidth: *shareBW, Options: opts,
		})
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println("cores  latency cc   speedup  efficiency")
		for _, r := range curve {
			fmt.Printf("%5d  %10.0f  %7.2fx  %9.0f%%\n", r.Cores, r.LatencyCC, r.Speedup, 100*r.Efficiency)
		}
		return
	}
	if *cores > 1 {
		mc, err := network.EvaluateMultiCore(context.Background(), net, hw, sp, &network.MultiCoreOptions{
			Cores: *cores, Pipeline: *pipeline, ShareGBBandwidth: *shareBW, Options: opts,
		})
		if err != nil {
			fatal("%v", err)
		}
		mode := "data-parallel"
		if *pipeline {
			mode = "pipeline"
		}
		fmt.Printf("%d cores (%s): %.0f cc vs %.0f single-core -> speedup %.2fx, efficiency %.0f%%\n",
			mc.Cores, mode, mc.LatencyCC, mc.SingleCoreCC, mc.Speedup, 100*mc.Efficiency)
		for i, s := range mc.PerCore {
			fmt.Printf("  core %d stage makespan: %.0f cc\n", i, s)
		}
		return
	}
	r, err := network.Evaluate(context.Background(), net, hw, sp, &opts)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Print(r.Report())
	if r.GBPlan != nil {
		fmt.Println()
		fmt.Print(r.GBPlan.Report())
	}
	if *explain {
		fmt.Println()
		explainLayers(r, hw)
	}
}

// explainLayers prints one line per layer naming the stall-dominating chain
// (attribution mode, dominant memory/port/DTL) from the explainer.
func explainLayers(r *network.Result, hw *arch.Arch) {
	fmt.Println("per-layer stall attribution (critical DTL chain):")
	fmt.Printf("  %-16s %10s %6s  %-6s %s\n", "layer", "SS_overall", "stall%", "mode", "critical chain")
	for i := range r.Layers {
		lr := &r.Layers[i]
		if lr.Candidate == nil {
			// Elementwise layers carry no mapping; their "stall" is the
			// bandwidth-bound pass itself.
			fmt.Printf("  %-16s %10.0f %5.1f%%  %-6s %s\n",
				lr.Original, 0.0, 0.0, "bw", "bandwidth-bound elementwise pass")
			continue
		}
		res := lr.Candidate.Result
		p := &core.Problem{Layer: &lr.Layer, Arch: hw, Mapping: lr.Candidate.Mapping}
		rep := obs.NewReport(p, res)
		chain := "-"
		if len(rep.Critical) > 0 {
			parts := make([]string, 0, len(rep.Critical))
			for _, c := range rep.Critical {
				parts = append(parts, fmt.Sprintf("%s %s (%.0f)", c.Kind, c.Name, c.Contribution))
			}
			chain = strings.Join(parts, " -> ")
		}
		stallPct := 0.0
		if res.CCTotal > 0 {
			stallPct = 100 * res.SSOverall / res.CCTotal
		}
		fmt.Printf("  %-16s %10.0f %5.1f%%  %-6s %s\n",
			lr.Original, res.SSOverall, stallPct, rep.Mode, chain)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "netmodel: "+format+"\n", args...)
	prof.Stop() // os.Exit skips defers; flush any profiles first
	os.Exit(1)
}
