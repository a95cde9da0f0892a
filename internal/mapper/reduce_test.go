package mapper

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/loops"
	"repro/internal/workload"
)

// TestClassMembersScoreIdentical is the reduction's exactness property,
// asserted member by member: enumerate the FULL ordering space (NoReduce),
// group the valid candidates by their model-equivalence signature, and
// require every member of a class to carry bit-identical latency (and
// energy, which the EDP objective consumes) to its class mates.
func TestClassMembersScoreIdentical(t *testing.T) {
	cases := []struct {
		name string
		l    workload.Layer
		a    *arch.Arch
		o    Options
	}{
		{
			name: "casestudy",
			l:    workload.NewMatMul("m", 16, 32, 32),
			a:    arch.CaseStudy(),
			o:    Options{Spatial: arch.CaseStudySpatial(), BWAware: true, Objective: MinEDP},
		},
		{
			name: "inhouse-unaware",
			l:    workload.NewMatMul("m", 16, 64, 64),
			a:    arch.InHouse(),
			o:    Options{Spatial: arch.InHouseSpatial(), BWAware: false, MaxCandidates: 4000},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.o
			o.NoReduce = true
			o.Workers = 1
			all, _, err := Enumerate(context.Background(), &tc.l, tc.a, &o)
			if err != nil {
				t.Fatal(err)
			}
			canon := newCanonicalizer(&tc.l, tc.a, o.Spatial)
			type classRef struct {
				nest     string
				latency  float64
				energyPJ float64
			}
			classes := map[string]classRef{}
			merged := 0
			for _, c := range all {
				sig := string(canon.signature(c.Mapping.Temporal))
				ref, ok := classes[sig]
				if !ok {
					classes[sig] = classRef{
						nest:     c.Mapping.Temporal.String(),
						latency:  c.Result.CCTotal,
						energyPJ: c.EnergyPJ,
					}
					continue
				}
				merged++
				if c.Result.CCTotal != ref.latency || c.EnergyPJ != ref.energyPJ {
					t.Fatalf("class member %s scores (%v, %v pJ), its representative %s scores (%v, %v pJ)",
						c.Mapping.Temporal, c.Result.CCTotal, c.EnergyPJ,
						ref.nest, ref.latency, ref.energyPJ)
				}
			}
			if merged == 0 {
				t.Fatal("space has no multi-member classes; the property test is vacuous")
			}
			t.Logf("%d candidates in %d classes", len(all), len(classes))
		})
	}
}

// TestReductionBitIdentical is the acceptance property: Best with the
// symmetry reduction on returns the bit-identical candidate — score AND
// mapping — as the exhaustive NoReduce search, across the full test matrix
// (run under -race via `make race`). The representative the reduced walk
// emits first is exactly the member the exhaustive (score, seq) tie-break
// selects, so even the chosen ordering matches.
func TestReductionBitIdentical(t *testing.T) {
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			full := tc.o
			full.NoReduce = true
			fc, fs, ferr := Best(context.Background(), &tc.l, tc.a, &full)

			for _, workers := range []int{1, 4} {
				red := tc.o
				red.Workers = workers
				rc, rs, rerr := Best(context.Background(), &tc.l, tc.a, &red)
				if (rerr == nil) != (ferr == nil) {
					t.Fatalf("workers=%d: err %v, NoReduce err %v", workers, rerr, ferr)
				}
				if rerr != nil {
					continue
				}
				if rc.Result.CCTotal != fc.Result.CCTotal {
					t.Errorf("workers=%d: CCTotal %v, want %v (bit-identical)",
						workers, rc.Result.CCTotal, fc.Result.CCTotal)
				}
				if rc.Score(tc.o.Objective) != fc.Score(tc.o.Objective) {
					t.Errorf("workers=%d: score %v, want %v",
						workers, rc.Score(tc.o.Objective), fc.Score(tc.o.Objective))
				}
				if got, want := rc.Mapping.Temporal.String(), fc.Mapping.Temporal.String(); got != want {
					t.Errorf("workers=%d: mapping %s, want %s", workers, got, want)
				}
				if rs.NestsGenerated+rs.ClassesMerged != fs.NestsGenerated+fs.ClassesMerged {
					t.Errorf("workers=%d: walk length %d, NoReduce %d — the walks must coincide",
						workers, rs.NestsGenerated+rs.ClassesMerged, fs.NestsGenerated+fs.ClassesMerged)
				}
				if rs.ClassesMerged == 0 && rs.NestsGenerated > 1 {
					t.Errorf("workers=%d: reduction merged nothing on %d nests", workers, rs.NestsGenerated)
				}
				if fs.ClassesMerged != 0 {
					t.Errorf("NoReduce run reports ClassesMerged = %d", fs.ClassesMerged)
				}
			}
		})
	}
}

// TestGeneratorBoundSound cross-checks the generator's subtree prune
// against an oracle that never prunes: Enumerate (modeAll disables the
// bound). The uncapped Best must match the minimum of the full valid
// enumeration exactly.
func TestGeneratorBoundSound(t *testing.T) {
	for _, bwAware := range []bool{true, false} {
		l := workload.NewMatMul("m", 24, 48, 96)
		a := arch.CaseStudy()
		o := Options{Spatial: arch.CaseStudySpatial(), BWAware: bwAware, MaxCandidates: 1 << 30}
		all, _, err := Enumerate(context.Background(), &l, a, &o)
		if err != nil {
			t.Fatal(err)
		}
		best, stats, err := Best(context.Background(), &l, a, &o)
		if err != nil {
			t.Fatal(err)
		}
		if best.Result.CCTotal != all[0].Result.CCTotal {
			t.Errorf("bwAware=%v: Best %v, enumeration minimum %v — the bound pruned the winner",
				bwAware, best.Result.CCTotal, all[0].Result.CCTotal)
		}
		if stats.SubtreesPruned == 0 {
			t.Logf("bwAware=%v: bound never fired on this space", bwAware)
		}
	}
}

// TestSkippedExactAccounting pins the satellite fix: once MaxCandidates
// trips, Skipped reports the TRUE remainder of the ordering space (counted
// by multinomial arithmetic), so walked + Skipped is invariant across any
// budget. Enumerate is used because it never bound-prunes — every ordering
// is either walked or skipped.
func TestSkippedExactAccounting(t *testing.T) {
	l := workload.NewMatMul("m", 32, 64, 64)
	a := arch.CaseStudy()
	base := Options{Spatial: arch.CaseStudySpatial(), BWAware: true, MaxCandidates: 1 << 30, Workers: 1}

	_, fullStats, err := Enumerate(context.Background(), &l, a, &base)
	if err != nil {
		t.Fatal(err)
	}
	total := fullStats.NestsGenerated + fullStats.ClassesMerged
	if fullStats.Skipped != 0 {
		t.Fatalf("uncapped run skipped %d", fullStats.Skipped)
	}
	for _, budget := range []int{1, 7, 40, 500, total - 1} {
		for _, noReduce := range []bool{false, true} {
			o := base
			o.MaxCandidates = budget
			o.NoReduce = noReduce
			_, st, err := Enumerate(context.Background(), &l, a, &o)
			if err != nil {
				t.Fatal(err)
			}
			walked := st.NestsGenerated + st.ClassesMerged
			if walked != budget {
				t.Errorf("budget=%d nosym=%v: walked %d", budget, noReduce, walked)
			}
			if walked+st.Skipped != total {
				t.Errorf("budget=%d nosym=%v: walked %d + skipped %d != space %d",
					budget, noReduce, walked, st.Skipped, total)
			}
		}
	}
}

// permuteCases are small block multisets in the walker's shape (equal
// blocks adjacent), the empty one included.
var permuteCases = [][]loops.Loop{
	nil,
	{{Dim: loops.K, Size: 4}},
	{{Dim: loops.K, Size: 4}, {Dim: loops.K, Size: 4}},
	{{Dim: loops.K, Size: 4}, {Dim: loops.K, Size: 4}, {Dim: loops.C, Size: 2}},
	{{Dim: loops.B, Size: 2}, {Dim: loops.B, Size: 2}, {Dim: loops.K, Size: 3}, {Dim: loops.K, Size: 3}, {Dim: loops.C, Size: 5}},
	{{Dim: loops.B, Size: 2}, {Dim: loops.K, Size: 3}, {Dim: loops.C, Size: 5}, {Dim: loops.OY, Size: 7}, {Dim: loops.OX, Size: 9}},
}

// TestDistinctOrderingsMatchesPermute pins the multinomial Skipped
// arithmetic to the walker it stands in for.
func TestDistinctOrderingsMatchesPermute(t *testing.T) {
	for _, blocks := range permuteCases {
		count := int64(0)
		permuteFrom(blocks, 0, func(loops.Nest) bool { count++; return true })
		if want := loops.DistinctOrderings(blocks); count != want {
			t.Errorf("blocks %v: permuteFrom walks %d, DistinctOrderings says %d", blocks, count, want)
		}
	}
}

// TestPermuteFromMatchesUnrank pins the walker's order to the rank
// arithmetic the shards resume by: the i-th ordering a walk from rank 0
// visits is loops.UnrankOrdering(blocks, i), and a walk from rank k visits
// exactly the suffix from k on (nothing once k is past the end).
func TestPermuteFromMatchesUnrank(t *testing.T) {
	walk := func(blocks []loops.Loop, skip int64) []loops.Nest {
		var out []loops.Nest
		permuteFrom(blocks, skip, func(n loops.Nest) bool { out = append(out, n.Clone()); return true })
		return out
	}
	for _, blocks := range permuteCases {
		all := walk(blocks, 0)
		total := loops.DistinctOrderings(blocks)
		if int64(len(all)) != total {
			t.Fatalf("blocks %v: walk visits %d, DistinctOrderings says %d", blocks, len(all), total)
		}
		for i, n := range all {
			if u := loops.UnrankOrdering(blocks, int64(i)); n.String() != u.String() {
				t.Fatalf("blocks %v: visit %d is %v, UnrankOrdering says %v", blocks, i, n, u)
			}
		}
		for k := int64(0); k <= total; k++ {
			got, want := walk(blocks, k), all[k:]
			if len(got) != len(want) {
				t.Fatalf("blocks %v skip %d: %d visits, want %d", blocks, k, len(got), len(want))
			}
			for i := range got {
				if got[i].String() != want[i].String() {
					t.Fatalf("blocks %v skip %d: visit %d is %v, want %v", blocks, k, i, got[i], want[i])
				}
			}
		}
	}
}
