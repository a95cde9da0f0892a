package core

import (
	"math"
	"testing"

	"repro/internal/loops"
	"repro/internal/mapping"
	"repro/internal/workload"
)

// TestScoreBatchBitIdentical: ScoreBatch over a slab must equal N individual
// ScoreLatency calls bit for bit — including the NaN marker for members that
// do not evaluate — with both fresh and warm evaluators.
func TestScoreBatchBitIdentical(t *testing.T) {
	l := workload.NewConv2D("c", 1, 4, 2, 4, 4, 3, 3)
	a := microArch(4, 37, 53, 29, false)

	base := loops.Nest{
		{Dim: loops.C, Size: 2}, {Dim: loops.OX, Size: 4},
		{Dim: loops.OY, Size: 4}, {Dim: loops.FX, Size: 3}, {Dim: loops.FY, Size: 3},
	}
	var ps []*Problem
	for _, tmp := range permute(base) {
		for split := 0; split <= len(tmp); split += 2 {
			m := &mapping.Mapping{
				Spatial:  loops.Nest{{Dim: loops.K, Size: 4}},
				Temporal: tmp,
			}
			for _, op := range loops.AllOperands {
				m.Bound[op] = []int{split, len(tmp)}
			}
			ps = append(ps, &Problem{Layer: &l, Arch: a, Mapping: m})
		}
	}
	if len(ps) < 300 {
		t.Fatalf("only %d problems built", len(ps))
	}

	// Reference: one throwaway evaluator per problem — never any memo hit.
	want := make([]float64, len(ps))
	for i, p := range ps {
		var ev Evaluator
		s, err := ev.ScoreLatency(p)
		if err != nil {
			s = math.NaN()
		}
		want[i] = s
	}

	shared := NewEvaluator()
	got := make([]float64, len(ps))
	if err := shared.ScoreBatch(ps, got); err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("problem %d: batch %v != individual %v (temporal %v)",
				i, got[i], want[i], ps[i].Mapping.Temporal)
		}
	}

	// Run the same slab again on the same evaluator: every memo layer is now
	// warm, and the scores must still not move by a bit.
	again := make([]float64, len(ps))
	if err := shared.ScoreBatch(ps, again); err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		if math.Float64bits(again[i]) != math.Float64bits(want[i]) {
			t.Fatalf("problem %d: warm batch %v != individual %v", i, again[i], want[i])
		}
	}

	if err := shared.ScoreBatch(ps, make([]float64, 1)); err == nil {
		t.Fatal("short output slab accepted")
	}
}

// TestCombineCacheBitIdentical: Step 2 keeps no memo of its own, and a
// shared evaluator — whose combine scratch carries state from every earlier
// port — must score each nest bit-identically to a fresh evaluator.
func TestCombineCacheBitIdentical(t *testing.T) {
	l := workload.NewConv2D("c", 1, 4, 2, 4, 4, 3, 3)
	a := microArch(4, 37, 53, 29, false)

	base := loops.Nest{
		{Dim: loops.C, Size: 2}, {Dim: loops.OX, Size: 4},
		{Dim: loops.OY, Size: 4}, {Dim: loops.FX, Size: 3}, {Dim: loops.FY, Size: 3},
	}
	shared := NewEvaluator()
	evals := 0
	for _, tmp := range permute(base) {
		m := &mapping.Mapping{
			Spatial:  loops.Nest{{Dim: loops.K, Size: 4}},
			Temporal: tmp,
		}
		for _, op := range loops.AllOperands {
			m.Bound[op] = []int{2, len(tmp)}
		}
		p := &Problem{Layer: &l, Arch: a, Mapping: m}
		got, err := shared.ScoreLatency(p)
		var fresh Evaluator
		want, werr := fresh.ScoreLatency(p)
		if (err == nil) != (werr == nil) {
			t.Fatalf("temporal %v: shared err %v, fresh err %v", tmp, err, werr)
		}
		if err != nil {
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("temporal %v: shared %v != fresh %v", tmp, got, want)
		}
		evals++
	}
	if evals < 100 {
		t.Fatalf("only %d evaluations ran", evals)
	}
}

// TestScoreNoAlloc: once an evaluator has scored a slab, scoring it again —
// one problem at a time or as a batch — allocates nothing. Step 2 runs on
// every call (it has no memo), so this also pins the combine and window-union
// scratch being reused.
func TestScoreNoAlloc(t *testing.T) {
	l := workload.NewConv2D("c", 1, 4, 2, 4, 4, 3, 3)
	a := microArch(4, 37, 53, 29, false)
	var ps []*Problem
	for _, tmp := range permute(loops.Nest{
		{Dim: loops.C, Size: 2}, {Dim: loops.OX, Size: 4}, {Dim: loops.FY, Size: 3},
	}) {
		m := &mapping.Mapping{Spatial: loops.Nest{{Dim: loops.K, Size: 4}}, Temporal: tmp}
		for _, op := range loops.AllOperands {
			m.Bound[op] = []int{1, len(tmp)}
		}
		ps = append(ps, &Problem{Layer: &l, Arch: a, Mapping: m})
	}
	ev := NewEvaluator()
	out := make([]float64, len(ps))
	if err := ev.ScoreBatch(ps, out); err != nil {
		t.Fatal(err)
	}
	for i, s := range out {
		if math.IsNaN(s) {
			t.Fatalf("problem %d (temporal %v) does not evaluate", i, ps[i].Mapping.Temporal)
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		for _, p := range ps {
			if _, err := ev.ScoreLatency(p); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("ScoreLatency over %d warm problems allocated %.1f times", len(ps), n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := ev.ScoreBatch(ps, out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ScoreBatch over %d warm problems allocated %.1f times", len(ps), n)
	}
}
