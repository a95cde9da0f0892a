package repro_test

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mapper"
	"repro/internal/memo"
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/roofline"
	"repro/internal/sensitivity"
	"repro/internal/sim"
	"repro/internal/transformer"
	"repro/internal/workload"
)

// Benchmarks for the extension modules beyond the paper's figures: the
// cross-layer network model, sensitivity analysis, the joint
// spatial+temporal search, and the analysis utilities.

func benchNet() *network.Network {
	return &network.Network{
		Name: "bench",
		Layers: []workload.Layer{
			workload.NewPointwise("pw1", 1, 64, 32, 14, 14),
			workload.NewConv2D("c2", 1, 64, 64, 14, 14, 3, 3),
			workload.NewDense("fc", 1, 128, 64*7*7),
		},
	}
}

// BenchmarkNetworkEvaluate prices a 3-layer network end to end with GB
// planning; metrics: total latency and utilization.
func BenchmarkNetworkEvaluate(b *testing.B) {
	hw := arch.CaseStudy()
	var r *network.Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = network.Evaluate(context.Background(), benchNet(), hw, arch.CaseStudySpatial(),
			&network.Options{MaxCandidates: 800, PlanGB: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.TotalCC, "total-cc")
	b.ReportMetric(100*r.Utilization, "util-%")
}

// repeatNet is a network with heavily repeated layer shapes — the residual
// stages of a ResNet-style body — where content-addressed caching pays: 9
// layers, 4 unique shapes.
func repeatNet() *network.Network {
	return &network.Network{
		Name: "bench-repeat",
		Layers: []workload.Layer{
			workload.NewConv2D("c1", 1, 32, 16, 28, 28, 3, 3),
			workload.NewConv2D("c2a", 1, 32, 32, 28, 28, 3, 3),
			workload.NewConv2D("c2b", 1, 32, 32, 28, 28, 3, 3),
			workload.NewConv2D("c2c", 1, 32, 32, 28, 28, 3, 3),
			workload.NewPointwise("p1", 1, 64, 32, 14, 14),
			workload.NewConv2D("c3a", 1, 64, 64, 14, 14, 3, 3),
			workload.NewConv2D("c3b", 1, 64, 64, 14, 14, 3, 3),
			workload.NewConv2D("c3c", 1, 64, 64, 14, 14, 3, 3),
			workload.NewPointwise("p2", 1, 64, 64, 14, 14),
		},
	}
}

// BenchmarkNetworkEvalCold prices the repeated-shape network with the memo
// cache emptied before every iteration: every unique shape pays a full
// mapping search each time. Baseline for BenchmarkNetworkEvalCached.
func BenchmarkNetworkEvalCold(b *testing.B) {
	hw, sp := arch.CaseStudy(), arch.CaseStudySpatial()
	opt := &network.Options{MaxCandidates: 800}
	for i := 0; i < b.N; i++ {
		memo.Default.Reset()
		if _, err := network.Evaluate(context.Background(), repeatNet(), hw, sp, opt); err != nil {
			b.Fatal(err)
		}
	}
	memo.Default.Reset()
}

// BenchmarkNetworkEvalCached is the same evaluation against a warm cache:
// every layer's search is a fingerprint hit. The gap to Cold is the price of
// the mapping searches the cache removes.
func BenchmarkNetworkEvalCached(b *testing.B) {
	hw, sp := arch.CaseStudy(), arch.CaseStudySpatial()
	opt := &network.Options{MaxCandidates: 800}
	memo.Default.Reset()
	if _, err := network.Evaluate(context.Background(), repeatNet(), hw, sp, opt); err != nil {
		b.Fatal(err) // warm the cache outside the timed region
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := network.Evaluate(context.Background(), repeatNet(), hw, sp, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	memo.Default.Reset()
}

// benchBlockNet builds the tiny transformer block in prefill mode: 14 ops
// (QKV/output projections, head-batched attention matmuls, FFN, and the
// bandwidth-bound elementwise passes), 10 unique shapes after dedup.
func benchBlockNet(b *testing.B) *network.Network {
	b.Helper()
	_, net, err := (&transformer.Spec{Preset: "tiny", Mode: "prefill"}).Build()
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// BenchmarkTransformerBlock prices one transformer block with the memo cache
// emptied before every iteration: every unique matmul shape pays a full
// mapping search each time (the per-head attention matmuls search once and
// scale by head count). Baseline for BenchmarkTransformerBlockWarm.
func BenchmarkTransformerBlock(b *testing.B) {
	hw, sp := arch.CaseStudy(), arch.CaseStudySpatial()
	net := benchBlockNet(b)
	opt := &network.Options{MaxCandidates: 800}
	var r *network.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		memo.Default.Reset()
		var err error
		r, err = network.Evaluate(context.Background(), net, hw, sp, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	memo.Default.Reset()
	b.ReportMetric(r.TotalCC, "total-cc")
}

// BenchmarkTransformerBlockWarm is the same block against a warm cache:
// every matmul search is a fingerprint hit, so the remaining cost is the
// elementwise pricing and cross-layer composition. The gap to the cold
// benchmark is the search work the memo removes.
func BenchmarkTransformerBlockWarm(b *testing.B) {
	hw, sp := arch.CaseStudy(), arch.CaseStudySpatial()
	net := benchBlockNet(b)
	opt := &network.Options{MaxCandidates: 800}
	memo.Default.Reset()
	if _, err := network.Evaluate(context.Background(), net, hw, sp, opt); err != nil {
		b.Fatal(err) // warm the cache outside the timed region
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := network.Evaluate(context.Background(), net, hw, sp, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	memo.Default.Reset()
}

// BenchmarkMultiCoreScaling evaluates the 4-core data-parallel speedup.
func BenchmarkMultiCoreScaling(b *testing.B) {
	hw := arch.CaseStudy()
	var r *network.MultiCoreResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = network.EvaluateMultiCore(context.Background(), benchNet(), hw, arch.CaseStudySpatial(),
			&network.MultiCoreOptions{Cores: 4, Options: network.Options{MaxCandidates: 600}})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Speedup, "speedup-x")
}

// BenchmarkSensitivityTornado sweeps every knob of the case-study arch.
func BenchmarkSensitivityTornado(b *testing.B) {
	l := workload.NewMatMul("t", 128, 128, 8)
	hw := arch.CaseStudy()
	var top sensitivity.Effect
	for i := 0; i < b.N; i++ {
		effects, err := sensitivity.Analyze(&l, hw, arch.CaseStudySpatial(),
			&sensitivity.Options{MaxCandidates: 500, SkipCapacity: true})
		if err != nil {
			b.Fatal(err)
		}
		top = effects[0]
	}
	b.ReportMetric(top.Swing, "top-swing-cc")
}

// BenchmarkSpatialSearch measures the joint spatial+temporal search.
func BenchmarkSpatialSearch(b *testing.B) {
	l := workload.NewMatMul("s", 48, 48, 48)
	hw := arch.CaseStudy()
	for i := 0; i < b.N; i++ {
		_, _, _, err := mapper.BestWithSpatial(context.Background(), &l, hw, &mapper.SpatialOptions{
			MaxSpatials: 6,
			Temporal:    mapper.Options{BWAware: true, MaxCandidates: 400},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSimArbitration contrasts the simulator's EDF scheduler
// against plain FIFO on a contended problem.
func BenchmarkAblationSimArbitration(b *testing.B) {
	p := caseStudyProblem(b)
	var edf, fifo int64
	for i := 0; i < b.N; i++ {
		r1, err := sim.Simulate(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := sim.Simulate(p, &sim.Options{FIFOArbitration: true})
		if err != nil {
			b.Fatal(err)
		}
		edf, fifo = r1.Cycles, r2.Cycles
	}
	b.ReportMetric(float64(edf), "edf-cc")
	b.ReportMetric(float64(fifo), "fifo-cc")
}

// BenchmarkAnalysisUtilities measures the cheap per-problem analyses.
func BenchmarkAnalysisUtilities(b *testing.B) {
	p := caseStudyProblem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := roofline.Analyze(p); err != nil {
			b.Fatal(err)
		}
		if _, err := noc.Analyze(p, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := core.Evaluate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBWSweep runs the bandwidth crossover study (one point set).
func BenchmarkBWSweep(b *testing.B) {
	var cross int64
	for i := 0; i < b.N; i++ {
		points, err := experiments.BWSweep([]int64{128, 512, 2048}, 150)
		if err != nil {
			b.Fatal(err)
		}
		cross = experiments.CrossoverBW(points, "64x64")
	}
	b.ReportMetric(float64(cross), "64x64-crossover-bw")
}

// BenchmarkAnnealSearch measures the simulated-annealing mapper on a
// prime-rich layer where exhaustive enumeration explodes.
func BenchmarkAnnealSearch(b *testing.B) {
	l := workload.NewMatMul("a", 196, 196, 196)
	hw := arch.CaseStudy()
	var cc float64
	for i := 0; i < b.N; i++ {
		cand, err := mapper.Anneal(context.Background(), &l, hw, &mapper.AnnealOptions{
			Spatial: arch.CaseStudySpatial(), BWAware: true,
			Iterations: 1500, Restarts: 2, Seed: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		cc = cand.Result.CCTotal
	}
	b.ReportMetric(cc, "best-cc")
}
