// Command latmodel evaluates the uniform latency model on one layer: it
// picks (or searches) a mapping on a preset accelerator and prints the full
// latency breakdown, per-port bandwidth analysis and energy estimate.
//
// Usage:
//
//	latmodel [-arch inhouse|casestudy] [-b N -k N -c N] [-conv "B,K,C,OY,OX,FY,FX"]
//	         [-config problem.json] [-dump preset.json] [-budget N] [-unaware] [-sim] [-csv]
//	         [-explain] [-explainjson out.json] [-tracejson out.json] [-progress]
//	         [-shards K] [-nodes url1,url2,...]
//
// -shards fans the exhaustive search out over K deterministic subtree
// shards — in-process goroutines, or the servemodel nodes listed in
// -nodes — and prints a result bit-identical to the unsharded search
// (DESIGN.md §13).
//
// With -config, the layer, architecture and (optionally) a fixed mapping
// are read from a JSON problem file (see internal/config); -dump writes the
// selected preset architecture as JSON to use as a starting point.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/energy"
	"repro/internal/fabric"
	"repro/internal/loops"
	"repro/internal/mapper"
	"repro/internal/mapping"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/otrace"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/roofline"
	"repro/internal/sensitivity"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	var (
		archName = flag.String("arch", "casestudy", "accelerator preset: inhouse or casestudy")
		b        = flag.Int64("b", 128, "matmul rows (batch) B")
		k        = flag.Int64("k", 128, "matmul columns (output channels) K")
		c        = flag.Int64("c", 128, "matmul reduction depth C")
		conv     = flag.String("conv", "", "Conv2D dims 'B,K,C,OY,OX,FY,FX' (lowered via Im2Col)")
		cfgPath  = flag.String("config", "", "JSON problem file (layer+arch+optional mapping)")
		dumpPath = flag.String("dump", "", "write the selected preset arch as JSON and exit")
		budget   = flag.Int("budget", 20000, "mapping search budget (loop nests)")
		anneal   = flag.Bool("anneal", false, "use simulated annealing instead of bounded enumeration")
		unaware  = flag.Bool("unaware", false, "use the bandwidth-unaware baseline model")
		runSim   = flag.Bool("sim", false, "also run the cycle-level reference simulator")
		tornado  = flag.Bool("tornado", false, "parameter sensitivity analysis (halve/double every knob)")
		csv      = flag.Bool("csv", false, "print the port table as CSV")
		jsonOut  = flag.String("json", "", "write the evaluation summary as JSON to this file")
		spatial  = flag.String("spatial", "", "override spatial unrolling, e.g. \"K 16 | B 8 | C 2\"")
		cacheDir = flag.String("cachedir", "", `on-disk search cache: directory path, or "auto" for the user cache dir (empty = memory only)`)
		explain  = flag.Bool("explain", false, "print the stall-attribution explainer (per-DTL stalls, critical chain)")
		explJSON = flag.String("explainjson", "", "write the full explainer report as JSON to this file")
		traceOut = flag.String("tracejson", "", "write a Chrome/Perfetto trace-event file of the port timelines to this file")
		progress = flag.Bool("progress", false, "stream live search telemetry to stderr")
		shards   = flag.Int("shards", 1, "fan the exhaustive search out over K deterministic subtree shards (results bit-identical to -shards 1)")
		nodes    = flag.String("nodes", "", "comma-separated servemodel base URLs to execute shards on (default: in-process goroutines)")
		ftrace   = flag.String("fabrictrace", "", "trace the sharded search: write the assembled fleet Perfetto trace to this file and the critical-path report to stderr (requires -shards > 1 or -nodes; results bit-identical with tracing off)")
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
		defer func() { fmt.Println(memo.Default.Counters()) }()
	}

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

	if *dumpPath != "" {
		data, err := config.Marshal(config.FromArch(hw))
		if err != nil {
			fatal("dump: %v", err)
		}
		if err := os.WriteFile(*dumpPath, data, 0o644); err != nil {
			fatal("dump: %v", err)
		}
		fmt.Printf("wrote %s (%s)\n", *dumpPath, hw.Name)
		return
	}

	// archWire / archCfgWire tell remote shard nodes which architecture
	// to load: the preset name when one is selected, the inline config form
	// when -config replaced it.
	archWire := *archName
	var archCfgWire *config.Arch

	var fixed *mapping.Mapping
	var layer workload.Layer
	if *cfgPath != "" {
		data, err := os.ReadFile(*cfgPath)
		if err != nil {
			fatal("config: %v", err)
		}
		prob, err := config.UnmarshalProblem(data)
		if err != nil {
			fatal("config: %v", err)
		}
		layer, err = prob.Layer.ToLayer()
		if err != nil {
			fatal("config layer: %v", err)
		}
		hw, err = prob.Arch.ToArch()
		if err != nil {
			fatal("config arch: %v", err)
		}
		archWire, archCfgWire = "", &prob.Arch
		if prob.Mapping != nil {
			fixed, err = prob.Mapping.ToMapping()
			if err != nil {
				fatal("config mapping: %v", err)
			}
			sp = fixed.Spatial
		} else {
			sp = guessSpatial(hw)
		}
	} else if *conv != "" {
		dims, err := parseDims(*conv)
		if err != nil {
			fatal("bad -conv: %v", err)
		}
		cl := workload.NewConv2D("conv", dims[0], dims[1], dims[2], dims[3], dims[4], dims[5], dims[6])
		layer = workload.Im2Col(cl)
		fmt.Printf("lowered: %s\n", layer.String())
	} else {
		layer = workload.NewMatMul(fmt.Sprintf("(%d,%d,%d)", *b, *k, *c), *b, *k, *c)
	}
	if err := layer.Validate(); err != nil {
		fatal("invalid layer: %v", err)
	}
	if *spatial != "" {
		n, err := loops.ParseNest(*spatial)
		if err != nil {
			fatal("bad -spatial: %v", err)
		}
		sp = n
	}

	hooks := progressHooks(*progress)
	var best *mapper.Candidate
	if fixed != nil {
		if err := fixed.Validate(&layer, hw); err != nil {
			fatal("fixed mapping invalid: %v", err)
		}
		r, err := evalFixed(&layer, hw, fixed, *unaware)
		if err != nil {
			fatal("evaluate: %v", err)
		}
		best = &mapper.Candidate{Mapping: fixed, Result: r}
		fmt.Printf("arch: %s (%d MACs)\nlayer: %s\nmapping: fixed from config\n\n",
			hw.Name, hw.MACs, layer.String())
	} else if *anneal {
		var err error
		best, err = mapper.AnnealCached(context.Background(), &layer, hw, &mapper.AnnealOptions{
			Spatial: sp, BWAware: !*unaware, Iterations: *budget / 4, Hooks: hooks,
		})
		if err != nil {
			fatal("annealing: %v", err)
		}
		fmt.Printf("arch: %s (%d MACs)\nlayer: %s\nsearch: simulated annealing (%d iterations x 3 restarts)\n\n",
			hw.Name, hw.MACs, layer.String(), *budget/4)
	} else {
		var stats *mapper.Stats
		var err error
		opt := &mapper.Options{
			Spatial: sp, BWAware: !*unaware, MaxCandidates: *budget, Hooks: hooks,
		}
		var run mapper.SearchFunc
		if *shards > 1 || *nodes != "" {
			run = fabric.Runner(&fabric.Options{
				Shards:     *shards,
				Nodes:      splitList(*nodes),
				ArchName:   archWire,
				ArchConfig: archCfgWire,
			})
		}
		// -fabrictrace roots a trace around the fan-out. Spans are pure
		// observation — the printed result is byte-identical either way —
		// and every trace artifact goes to stderr or the trace file, never
		// stdout.
		ctx := context.Background()
		var rec *otrace.Recorder
		var root *otrace.Span
		if *ftrace != "" {
			if run == nil {
				fatal("-fabrictrace requires a sharded search (add -shards K or -nodes)")
			}
			rec = otrace.NewRecorder("latmodel", 0, 0)
			ctx, root = rec.StartTrace(ctx, "fabric.search", "fabric")
			root.SetTid(1)
		}
		best, stats, err = mapper.BestCachedVia(ctx, &layer, hw, opt, run)
		if err != nil {
			fatal("mapping search: %v", err)
		}
		if rec != nil {
			root.End()
			writeFabricTrace(rec, root.TraceID(), splitList(*nodes), *ftrace)
		}
		fmt.Printf("arch: %s (%d MACs)\nlayer: %s\nsearch: %d nests, %d valid\n\n",
			hw.Name, hw.MACs, layer.String(), stats.NestsGenerated, stats.Valid)
	}
	fmt.Println(best.Mapping)
	fmt.Print(dataflow.Classify(best.Mapping).Describe())
	fmt.Println()
	fmt.Println(best.Result.Report())

	tb := report.NewTable("per-port analysis", "port", "ReqBW rd", "ReqBW wr", "RealBW", "MUW", "SS")
	for _, ps := range best.Result.Ports {
		tb.Add(ps.MemName+"."+ps.PortName, ps.ReqBWReadBits, ps.ReqBWWriteBits,
			ps.RealBWBits, ps.MUWComb, ps.SSComb)
	}
	if *csv {
		fmt.Print(tb.CSV())
	} else {
		tb.Write(os.Stdout)
	}

	p := &core.Problem{Layer: &layer, Arch: hw, Mapping: best.Mapping}
	if *explain || *explJSON != "" || *traceOut != "" {
		if *unaware {
			fatal("-explain/-explainjson/-tracejson need the bandwidth-aware model's diagnostics (drop -unaware)")
		}
		rep := obs.NewReport(p, best.Result)
		if *explain {
			fmt.Println()
			fmt.Print(rep.Text())
		}
		if *explJSON != "" {
			data, err := rep.JSON()
			if err != nil {
				fatal("explainjson: %v", err)
			}
			if err := os.WriteFile(*explJSON, data, 0o644); err != nil {
				fatal("explainjson: %v", err)
			}
			fmt.Printf("\nwrote %s\n", *explJSON)
		}
		if *traceOut != "" {
			raw, err := obs.TraceJSON(p, best.Result, obs.TraceOptions{})
			if err != nil {
				fatal("tracejson: %v", err)
			}
			if err := os.WriteFile(*traceOut, raw, 0o644); err != nil {
				fatal("tracejson: %v", err)
			}
			fmt.Printf("\nwrote %s (open in ui.perfetto.dev or chrome://tracing)\n", *traceOut)
		}
	}
	if rf, err := roofline.Analyze(p); err == nil {
		fmt.Println()
		fmt.Print(rf.Report())
	}
	if e, err := energy.Evaluate(p, nil); err == nil {
		fmt.Printf("\nenergy: %.1f nJ (MAC %.1f, array %.1f", e.TotalPJ/1e3, e.MACPJ/1e3, e.ArrayPJ/1e3)
		for _, n := range e.MemNames() {
			fmt.Printf(", %s %.1f", n, e.MemPJ[n]/1e3)
		}
		fmt.Println(")")
	}

	if *jsonOut != "" {
		prob := &core.Problem{Layer: &layer, Arch: hw, Mapping: best.Mapping}
		data, err := config.Marshal(config.FromResult(prob, best.Result))
		if err != nil {
			fatal("json: %v", err)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fatal("json: %v", err)
		}
		fmt.Printf("\nwrote %s\n", *jsonOut)
	}

	if *tornado {
		effects, err := sensitivity.Analyze(&layer, hw, best.Mapping.Spatial, nil)
		if err != nil {
			fatal("sensitivity: %v", err)
		}
		fmt.Println("\nparameter sensitivity (mapping re-optimized per point):")
		fmt.Print(sensitivity.Report(effects))
	}

	if *runSim {
		sr, err := sim.Simulate(p, nil)
		if err != nil {
			fatal("simulator: %v", err)
		}
		acc := 1 - abs(best.Result.CCTotal-float64(sr.Cycles))/float64(sr.Cycles)
		fmt.Printf("\nsimulator: %d cycles (stall %d, preload %d, tail %d) -> model accuracy %.1f%%\n",
			sr.Cycles, sr.ComputeStall, sr.PreloadCycles, sr.DrainTail, 100*acc)
	}
}

// progressHooks builds stderr-streaming telemetry hooks (nil when off, so
// the mapper keeps its zero-overhead fast path).
func progressHooks(on bool) *obs.SearchHooks {
	if !on {
		return nil
	}
	return &obs.SearchHooks{
		Phase: func(name string, d time.Duration) {
			fmt.Fprintf(os.Stderr, "progress: phase %-8s %v\n", name, d.Round(time.Microsecond))
		},
		Progress: func(p obs.SearchProgress) {
			best := "-"
			if !math.IsInf(p.BestCC, 1) {
				best = fmt.Sprintf("%.0f", p.BestCC)
			}
			fmt.Fprintf(os.Stderr, "progress: walked %d valid %d pruned %d best %s (%.1fs)\n",
				p.Walked, p.Valid, p.Pruned, best, p.Elapsed.Seconds())
		},
		ImprovedBest: func(score float64, seq int64) {
			fmt.Fprintf(os.Stderr, "progress: new best %.0f (candidate #%d)\n", score, seq)
		},
		AnnealProgress: func(chain, iter int, best float64) {
			fmt.Fprintf(os.Stderr, "progress: anneal chain %d iter %d best %.0f\n", chain, iter, best)
		},
	}
}

// evalFixed evaluates one fixed mapping with the chosen model.
func evalFixed(l *workload.Layer, hw *arch.Arch, m *mapping.Mapping, unaware bool) (*core.Result, error) {
	p := &core.Problem{Layer: l, Arch: hw, Mapping: m}
	if unaware {
		return core.EvaluateBWUnaware(p)
	}
	return core.Evaluate(p)
}

// guessSpatial picks a default spatial unrolling for a config-file arch: a
// K|B|C unrolling shaped like the presets', sized to the MAC count.
func guessSpatial(hw *arch.Arch) loops.Nest {
	k := int64(16)
	for k*k/2 < hw.MACs {
		k *= 2
	}
	b := hw.MACs / (k * 2)
	if b < 1 {
		b = 1
		k = hw.MACs / 2
		if k < 1 {
			return loops.Nest{{Dim: loops.K, Size: hw.MACs}}
		}
	}
	return loops.Nest{{Dim: loops.K, Size: k}, {Dim: loops.B, Size: b}, {Dim: loops.C, Size: 2}}
}

// writeFabricTrace assembles the coordinator's recorded spans with every
// remote node's export of the same trace (GET /v1/trace/{id}) into one
// Perfetto file plus the critical-path report. All output goes to stderr /
// the trace file so stdout stays byte-identical to an untraced run.
func writeFabricTrace(rec *otrace.Recorder, tid otrace.TraceID, nodes []string, path string) {
	var traces []otrace.WireTrace
	if w, ok := rec.Export(tid); ok {
		traces = append(traces, w)
	}
	for _, n := range nodes {
		w, err := fetchTrace(n, tid)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fabrictrace: %s: %v (node omitted from the assembly)\n", n, err)
			continue
		}
		traces = append(traces, w)
	}
	a, err := otrace.Assemble(rec.Node(), traces)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fabrictrace: assemble: %v\n", err)
		return
	}
	data, err := a.JSON()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fabrictrace: encode: %v\n", err)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "fabrictrace: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "fabrictrace: trace %s (%d node(s), %d spans)\n", tid, len(traces), len(a.Events))
	fmt.Fprint(os.Stderr, a.Report.Format())
	fmt.Fprintf(os.Stderr, "fabrictrace: wrote %s (open in ui.perfetto.dev)\n", path)
}

// fetchTrace pulls one node's recorded spans for the trace.
func fetchTrace(node string, tid otrace.TraceID) (otrace.WireTrace, error) {
	url := strings.TrimRight(node, "/") + "/v1/trace/" + tid.String()
	resp, err := http.Get(url)
	if err != nil {
		return otrace.WireTrace{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return otrace.WireTrace{}, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var w otrace.WireTrace
	if err := json.NewDecoder(io.LimitReader(resp.Body, 32<<20)).Decode(&w); err != nil {
		return otrace.WireTrace{}, err
	}
	return w, nil
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseDims(s string) ([]int64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 7 {
		return nil, fmt.Errorf("want 7 comma-separated dims, got %d", len(parts))
	}
	out := make([]int64, 7)
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "latmodel: "+format+"\n", args...)
	prof.Stop() // os.Exit skips defers; flush any profiles first
	os.Exit(1)
}
