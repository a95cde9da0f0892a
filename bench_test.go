// Package repro_test is the benchmark harness: one benchmark per table and
// figure of the paper's evaluation (run with `go test -bench=. -benchmem`),
// plus ablation benchmarks for the design choices called out in DESIGN.md.
// Accuracy-style results are attached as custom benchmark metrics so a
// single -bench run regenerates every reported number.
package repro_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/loops"
	"repro/internal/mapper"
	"repro/internal/mapping"
	"repro/internal/periodic"
	"repro/internal/sim"
	"repro/internal/workload"
)

// caseStudyProblem returns a fixed mid-size problem on the case-study
// accelerator for micro-benchmarks.
func caseStudyProblem(b *testing.B) *core.Problem {
	b.Helper()
	layer := workload.NewMatMul("bench", 128, 128, 128)
	hw := arch.CaseStudy()
	best, _, err := mapper.Best(context.Background(), &layer, hw, &mapper.Options{
		Spatial: arch.CaseStudySpatial(), BWAware: true, MaxCandidates: 2000,
	})
	if err != nil {
		b.Fatal(err)
	}
	return &core.Problem{Layer: &layer, Arch: hw, Mapping: best.Mapping}
}

// BenchmarkFig1Scenarios evaluates four problems hitting the four
// computation scenarios of Fig. 1(b) and reports each scenario's modeled
// cycle count as a metric.
func BenchmarkFig1Scenarios(b *testing.B) {
	layer := workload.NewMatMul("s", 64, 64, 64)
	hw := arch.CaseStudy()
	full := arch.CaseStudySpatial()
	half := loops.Nest{{Dim: loops.K, Size: 16}, {Dim: loops.B, Size: 8}}

	mk := func(sp loops.Nest, starve bool) *core.Problem {
		a := hw.Clone()
		if starve {
			gb := a.MemoryByName("GB")
			for i := range gb.Ports {
				gb.Ports[i].BWBits = 16
			}
		}
		best, _, err := mapper.Best(context.Background(), &layer, a, &mapper.Options{Spatial: sp, BWAware: true, MaxCandidates: 500})
		if err != nil {
			b.Fatal(err)
		}
		return &core.Problem{Layer: &layer, Arch: a, Mapping: best.Mapping}
	}
	problems := []*core.Problem{mk(full, false), mk(half, false), mk(full, true), mk(half, true)}

	b.ResetTimer()
	var results [4]*core.Result
	for i := 0; i < b.N; i++ {
		for j, p := range problems {
			r, err := core.Evaluate(p)
			if err != nil {
				b.Fatal(err)
			}
			results[j] = r
		}
	}
	b.ReportMetric(results[0].CCTotal, "scen1-cc")
	b.ReportMetric(results[1].CCTotal, "scen2-cc")
	b.ReportMetric(results[2].CCTotal, "scen3-cc")
	b.ReportMetric(results[3].CCTotal, "scen4-cc")
}

// BenchmarkTableIReqBW measures Step-1 DTL attribute extraction (Table I's
// ReqBW per memory type and top-loop type) on a full problem.
func BenchmarkTableIReqBW(b *testing.B) {
	p := caseStudyProblem(b)
	b.ResetTimer()
	var eps []*core.Endpoint
	for i := 0; i < b.N; i++ {
		var err error
		eps, err = core.Endpoints(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(eps)), "DTLs")
}

// BenchmarkFig3Cases runs the six stall/slack timeline cases of Fig. 3
// (double-buffered and keep-out windows, X_REAL <=> X_REQ).
func BenchmarkFig3Cases(b *testing.B) {
	// Six windows mirroring Fig. 3(a)-(f).
	windows := []periodic.Window{
		periodic.Full(8, 64), periodic.Full(8, 64), periodic.Full(8, 64),
		periodic.Tail(8, 2, 64), periodic.Tail(8, 2, 64), periodic.Tail(8, 2, 64),
	}
	b.ResetTimer()
	var u int64
	for i := 0; i < b.N; i++ {
		u = periodic.UnionLength(windows)
	}
	b.ReportMetric(float64(u), "MUW-union")
}

// BenchmarkFig4Example runs the worked Divide/Combine example of Fig. 4 —
// a local buffer whose single read port is shared by the W/I/O register
// fills — end to end (the hand-derived SS_comb is 20; see the core tests).
func BenchmarkFig4Example(b *testing.B) {
	layer := workload.NewMatMul("fig4", 4, 2, 4)
	layer.Precision = workload.Precision{W: 8, I: 8, O: 8}
	hw := &arch.Arch{
		Name: "fig4",
		MACs: 2,
		Memories: []*arch.Memory{
			{Name: "W-Reg", CapacityBits: 1 << 12, Serves: []loops.Operand{loops.W},
				Ports: []arch.Port{{Name: "rw", Dir: arch.ReadWrite, BWBits: 1 << 16}}},
			{Name: "I-Reg", CapacityBits: 1 << 12, Serves: []loops.Operand{loops.I},
				Ports: []arch.Port{{Name: "rw", Dir: arch.ReadWrite, BWBits: 1 << 16}}},
			{Name: "O-Reg", CapacityBits: 1 << 12, Serves: []loops.Operand{loops.O},
				Ports: []arch.Port{{Name: "rw", Dir: arch.ReadWrite, BWBits: 1 << 16}}},
			{Name: "LB", CapacityBits: 1 << 16, Serves: []loops.Operand{loops.W, loops.I, loops.O},
				Ports: []arch.Port{
					{Name: "rd", Dir: arch.Read, BWBits: 16},
					{Name: "wr", Dir: arch.Write, BWBits: 1 << 16},
				}},
			{Name: "GB", CapacityBits: 1 << 24, Serves: []loops.Operand{loops.W, loops.I, loops.O},
				Ports: []arch.Port{
					{Name: "rd", Dir: arch.Read, BWBits: 1 << 16},
					{Name: "wr", Dir: arch.Write, BWBits: 1 << 16},
				}},
		},
	}
	for _, op := range loops.AllOperands {
		hw.Chain[op] = []string{op.String() + "-Reg", "LB", "GB"}
	}
	if err := hw.Normalize(); err != nil {
		b.Fatal(err)
	}
	m := &mapping.Mapping{
		Spatial:  loops.Nest{{Dim: loops.K, Size: 2}},
		Temporal: loops.Nest{{Dim: loops.C, Size: 2}, {Dim: loops.B, Size: 4}, {Dim: loops.C, Size: 2}},
	}
	m.Bound[loops.W] = []int{1, 2, 3}
	m.Bound[loops.I] = []int{1, 2, 3}
	m.Bound[loops.O] = []int{1, 2, 3}
	p := &core.Problem{Layer: &layer, Arch: hw, Mapping: m}
	b.ResetTimer()
	var ss float64
	for i := 0; i < b.N; i++ {
		r, err := core.Evaluate(p)
		if err != nil {
			b.Fatal(err)
		}
		ss = r.SSOverall
	}
	b.ReportMetric(ss, "SS-overall")
}

// BenchmarkFig5Validation runs one validation layer (model + reference
// simulator) and reports the accuracy; the full-suite number comes from
// cmd/validate.
func BenchmarkFig5Validation(b *testing.B) {
	a := arch.InHouse()
	l := workload.Im2Col(workload.HandTrackingSuite()[4]) // conv4_pw
	best, _, err := mapper.Best(context.Background(), &l, a, &mapper.Options{
		Spatial: arch.InHouseSpatial(), BWAware: true, MaxCandidates: 4000,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := &core.Problem{Layer: &l, Arch: a, Mapping: best.Mapping}
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		r, err := core.Evaluate(p)
		if err != nil {
			b.Fatal(err)
		}
		sr, err := sim.Simulate(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		acc = 1 - math.Abs(r.CCTotal-float64(sr.Cycles))/float64(sr.Cycles)
	}
	b.ReportMetric(100*acc, "accuracy-%")
}

// BenchmarkFig6Case1 evaluates the Mapping A vs Mapping B comparison and
// reports B's latency advantage and A's energy advantage.
func BenchmarkFig6Case1(b *testing.B) {
	var r *experiments.Case1Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Case1(false)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*(1-r.B.Result.CCTotal/r.A.Result.CCTotal), "B-latency-gain-%")
	b.ReportMetric(100*(1-r.A.Energy.TotalPJ/r.B.Energy.TotalPJ), "A-energy-gain-%")
}

// BenchmarkFig7Case2 runs the workload sweep and reports the worst
// bandwidth-unaware discrepancy (paper: 9.2x at (512,512,8)).
func BenchmarkFig7Case2(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Case2(&experiments.Case2Options{MaxCandidates: 1500})
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if r.Discrepancy > worst {
				worst = r.Discrepancy
			}
		}
	}
	b.ReportMetric(worst, "max-discrepancy-x")
}

// BenchmarkFig8Case3 runs the quick architecture sweep for the three panels
// and reports each array size's best low-bandwidth latency.
func BenchmarkFig8Case3(b *testing.B) {
	var r *experiments.Case3Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Case3(&experiments.Case3Options{Quick: true, MaxCandidates: 150})
		if err != nil {
			b.Fatal(err)
		}
	}
	best := dse.BestPerArray(r.Low)
	b.ReportMetric(best["16x16"].Latency, "16x16-lowBW-cc")
	b.ReportMetric(best["32x32"].Latency, "32x32-lowBW-cc")
	b.ReportMetric(best["64x64"].Latency, "64x64-lowBW-cc")
}

// --- Ablation benchmarks (DESIGN.md section 5) ---

// ablationAccuracy evaluates the model under opts against the simulator on
// one stall-heavy layer.
func ablationAccuracy(b *testing.B, opts *core.ModelOptions) float64 {
	b.Helper()
	layer := workload.NewMatMul("abl", 128, 128, 8)
	hw := arch.CaseStudy()
	best, _, err := mapper.Best(context.Background(), &layer, hw, &mapper.Options{
		Spatial: arch.CaseStudySpatial(), BWAware: true, MaxCandidates: 2000,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := &core.Problem{Layer: &layer, Arch: hw, Mapping: best.Mapping, Opts: opts}
	r, err := core.Evaluate(p)
	if err != nil {
		b.Fatal(err)
	}
	sr, err := sim.Simulate(p, nil)
	if err != nil {
		b.Fatal(err)
	}
	return 1 - math.Abs(r.CCTotal-float64(sr.Cycles))/float64(sr.Cycles)
}

// BenchmarkAblationCombine contrasts the full Step-2 combination against
// the paper-verbatim Eq. (2) and the naive slack-cancelling sum.
func BenchmarkAblationCombine(b *testing.B) {
	var full, eq2, naive float64
	for i := 0; i < b.N; i++ {
		full = ablationAccuracy(b, nil)
		eq2 = ablationAccuracy(b, &core.ModelOptions{NoCapacityBound: true})
		naive = ablationAccuracy(b, &core.ModelOptions{NaiveCombine: true})
	}
	b.ReportMetric(100*full, "full-acc-%")
	b.ReportMetric(100*eq2, "eq2-only-acc-%")
	b.ReportMetric(100*naive, "naive-acc-%")
}

// BenchmarkAblationQuantization contrasts whole-bus-word transfer rounding
// against fractional X_REAL.
func BenchmarkAblationQuantization(b *testing.B) {
	var quantized, fractional float64
	for i := 0; i < b.N; i++ {
		quantized = ablationAccuracy(b, nil)
		fractional = ablationAccuracy(b, &core.ModelOptions{FractionalXReal: true})
	}
	b.ReportMetric(100*quantized, "quantized-acc-%")
	b.ReportMetric(100*fractional, "fractional-acc-%")
}

// BenchmarkAblationMapperPruning contrasts the pow2-restricted search with
// the full divisor search at equal budget.
func BenchmarkAblationMapperPruning(b *testing.B) {
	layer := workload.NewMatMul("prune", 192, 192, 96)
	hw := arch.CaseStudy()
	var fullLat, pow2Lat float64
	for i := 0; i < b.N; i++ {
		bf, _, err := mapper.Best(context.Background(), &layer, hw, &mapper.Options{
			Spatial: arch.CaseStudySpatial(), BWAware: true, MaxCandidates: 3000,
		})
		if err != nil {
			b.Fatal(err)
		}
		bp, _, err := mapper.Best(context.Background(), &layer, hw, &mapper.Options{
			Spatial: arch.CaseStudySpatial(), BWAware: true, MaxCandidates: 3000, Pow2Splits: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		fullLat, pow2Lat = bf.Result.CCTotal, bp.Result.CCTotal
	}
	b.ReportMetric(fullLat, "full-search-cc")
	b.ReportMetric(pow2Lat, "pow2-search-cc")
}

// BenchmarkModelThroughput measures raw model evaluations per second — the
// property that makes analytical models the tool of choice for early DSE.
func BenchmarkModelThroughput(b *testing.B) {
	p := caseStudyProblem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Evaluate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimThroughput measures the reference simulator on the same
// problem, quantifying the model's speed advantage.
func BenchmarkSimThroughput(b *testing.B) {
	p := caseStudyProblem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Simulate(p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelThroughputReused is BenchmarkModelThroughput with a
// retained core.Evaluator — the configuration the mapping-search hot path
// actually runs, with every internal buffer reused across evaluations.
func BenchmarkModelThroughputReused(b *testing.B) {
	p := caseStudyProblem(b)
	var ev core.Evaluator
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.ScoreLatency(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapperSearch measures a bounded mapping search end to end.
func BenchmarkMapperSearch(b *testing.B) {
	layer := workload.NewMatMul("search", 128, 128, 128)
	hw := arch.CaseStudy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mapper.Best(context.Background(), &layer, hw, &mapper.Options{
			Spatial: arch.CaseStudySpatial(), BWAware: true, MaxCandidates: 1000,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreBatch scores slabs of 64 problems through the
// structure-of-arrays batch entry point — the configuration the latency
// workers run — against a retained evaluator.
func BenchmarkScoreBatch(b *testing.B) {
	base := caseStudyProblem(b)
	const slab = 64
	ps := make([]*core.Problem, slab)
	for i := range ps {
		ps[i] = base
	}
	out := make([]float64, slab)
	var ev core.Evaluator
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.ScoreBatch(ps, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(slab), "problems/batch")
}

// BenchmarkMapperSearchSerial pins the single-worker, prune-disabled
// search — the engine's pre-pipeline behaviour, for speedup accounting.
func BenchmarkMapperSearchSerial(b *testing.B) {
	layer := workload.NewMatMul("search", 128, 128, 128)
	hw := arch.CaseStudy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mapper.Best(context.Background(), &layer, hw, &mapper.Options{
			Spatial: arch.CaseStudySpatial(), BWAware: true, MaxCandidates: 1000,
			Workers: 1, NoPrune: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapperSearchNoSym is BenchmarkMapperSearch with the symmetry
// reduction disabled — the pre-reduction engine, for speedup accounting
// (the result is bit-identical; only the evaluated stream grows).
func BenchmarkMapperSearchNoSym(b *testing.B) {
	layer := workload.NewMatMul("search", 128, 128, 128)
	hw := arch.CaseStudy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mapper.Best(context.Background(), &layer, hw, &mapper.Options{
			Spatial: arch.CaseStudySpatial(), BWAware: true, MaxCandidates: 1000,
			NoReduce: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapperSearchParallel forces a 4-worker evaluation pipeline
// (bypassing the shared budget, so the number is meaningful regardless of
// the machine's GOMAXPROCS).
func BenchmarkMapperSearchParallel(b *testing.B) {
	layer := workload.NewMatMul("search", 128, 128, 128)
	hw := arch.CaseStudy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mapper.Best(context.Background(), &layer, hw, &mapper.Options{
			Spatial: arch.CaseStudySpatial(), BWAware: true, MaxCandidates: 1000,
			Workers: 4,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
