package mapper

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/workload"
)

// equivCase is one (layer, arch, options) search configuration used by the
// parallel-vs-serial equivalence tests.
type equivCase struct {
	name string
	l    workload.Layer
	a    *arch.Arch
	o    Options
}

func equivCases() []equivCase {
	cs := []equivCase{
		{
			name: "casestudy-matmul",
			l:    workload.NewMatMul("m", 32, 64, 64),
			a:    arch.CaseStudy(),
			o:    Options{Spatial: arch.CaseStudySpatial(), BWAware: true},
		},
		{
			name: "casestudy-awkward",
			l:    workload.NewMatMul("m", 24, 48, 96),
			a:    arch.CaseStudy(),
			o:    Options{Spatial: arch.CaseStudySpatial(), BWAware: true, MaxCandidates: 3000},
		},
		{
			name: "casestudy-bwunaware",
			l:    workload.NewMatMul("m", 16, 32, 32),
			a:    arch.CaseStudy(),
			o:    Options{Spatial: arch.CaseStudySpatial(), BWAware: false},
		},
		{
			name: "inhouse-minedp",
			l:    workload.NewMatMul("m", 16, 64, 64),
			a:    arch.InHouse(),
			o:    Options{Spatial: arch.InHouseSpatial(), BWAware: true, Objective: MinEDP, MaxCandidates: 2000},
		},
		{
			name: "tpulike-capped",
			l:    workload.NewMatMul("m", 64, 128, 128),
			a:    arch.TPULike(),
			o:    Options{Spatial: arch.TPULikeSpatial(), BWAware: true, MaxCandidates: 400},
		},
	}
	return cs
}

// TestParallelMatchesSerial is the engine's central contract: for any
// worker count, with and without pruning, Best returns a bit-identical
// score, the same mapping, and the same exact statistics as a serial run —
// the whole Stats struct, with only the trajectory-dependent Pruned zeroed.
// Run under -race this also exercises the batch stream against the worker
// pool.
func TestParallelMatchesSerial(t *testing.T) {
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			ser := tc.o
			ser.Workers = 1
			ser.NoPrune = true // the reference: serial, exhaustive
			refCand, refStats, refErr := Best(context.Background(), &tc.l, tc.a, &ser)

			for _, cfg := range []struct {
				label    string
				workers  int
				noPrune  bool
				noReduce bool
			}{
				{"serial-pruned", 1, false, false},
				{"parallel-2", 2, false, false},
				{"parallel-4", 4, false, false},
				{"parallel-8", 8, false, false},
				{"parallel-4-noprune", 4, true, false},
				// The symmetry reduction is exact, so disabling it must not
				// move the result either; its stats differ by construction
				// (it walks orderings, not classes), so skip those below.
				{"parallel-4-nosym", 4, false, true},
			} {
				o := tc.o
				o.Workers = cfg.workers
				o.NoPrune = cfg.noPrune
				o.NoReduce = cfg.noReduce
				cand, stats, err := Best(context.Background(), &tc.l, tc.a, &o)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("%s: err = %v, reference err = %v", cfg.label, err, refErr)
				}
				if err != nil {
					continue
				}
				if cand.Result.CCTotal != refCand.Result.CCTotal {
					t.Errorf("%s: CCTotal = %v, want %v (bit-identical)",
						cfg.label, cand.Result.CCTotal, refCand.Result.CCTotal)
				}
				if cand.Score(tc.o.Objective) != refCand.Score(tc.o.Objective) {
					t.Errorf("%s: score = %v, want %v",
						cfg.label, cand.Score(tc.o.Objective), refCand.Score(tc.o.Objective))
				}
				if got, want := cand.Mapping.Temporal.String(), refCand.Mapping.Temporal.String(); got != want {
					t.Errorf("%s: mapping %s, want %s", cfg.label, got, want)
				}
				if cfg.noReduce {
					continue
				}
				gotStats, wantStats := *stats, *refStats
				gotStats.Pruned, wantStats.Pruned = 0, 0
				if gotStats != wantStats {
					t.Errorf("%s: stats %+v, want %+v", cfg.label, gotStats, wantStats)
				}
			}
		})
	}
}

// TestGuidedMatchesUnguided pins the contract the surrogate-guided ordering
// (since deleted) was held to, and which the one remaining canonical walk
// must keep: for every configuration and worker count, Best's pruned,
// batched walk returns the exhaustive ranking's winner — the same score
// bits as Enumerate's first candidate and a temporal nest from its
// equal-score head — and the same Stats for every worker count, with only
// the trajectory-dependent Pruned zeroed.
func TestGuidedMatchesUnguided(t *testing.T) {
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			all, _, allErr := Enumerate(context.Background(), &tc.l, tc.a, &tc.o)
			ser := tc.o
			ser.Workers = 1
			_, refStats, refErr := Best(context.Background(), &tc.l, tc.a, &ser)
			if (allErr == nil) != (refErr == nil) {
				t.Fatalf("Best err = %v, Enumerate err = %v", refErr, allErr)
			}
			if refErr != nil {
				return
			}
			if len(all) == 0 {
				t.Fatal("Enumerate found no candidate where Best found one")
			}
			want := math.Float64bits(all[0].Score(tc.o.Objective))
			head := map[string]bool{}
			for _, c := range all {
				if math.Float64bits(c.Score(tc.o.Objective)) != want {
					break
				}
				head[c.Mapping.Temporal.String()] = true
			}

			for _, workers := range []int{1, 3, 8} {
				o := tc.o
				o.Workers = workers
				cand, stats, err := Best(context.Background(), &tc.l, tc.a, &o)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got := math.Float64bits(cand.Score(tc.o.Objective)); got != want {
					t.Errorf("workers=%d: score bits %x, want %x (Best %v vs Enumerate %v)",
						workers, got, want, cand.Score(tc.o.Objective), all[0].Score(tc.o.Objective))
				}
				if m := cand.Mapping.Temporal.String(); !head[m] {
					t.Errorf("workers=%d: mapping %s is not among Enumerate's %d best", workers, m, len(head))
				}
				gotStats, wantStats := *stats, *refStats
				gotStats.Pruned, wantStats.Pruned = 0, 0
				if gotStats != wantStats {
					t.Errorf("workers=%d: stats %+v, want %+v", workers, gotStats, wantStats)
				}
			}
		})
	}
}

// TestEnumerateCanonicalOrder locks the fixed enumeration order: equal-score
// candidates are ordered by their temporal nest rendering, so the returned
// list is identical for any worker count — including the exact order, which
// sort.Slice alone (the old implementation) did not guarantee.
func TestEnumerateCanonicalOrder(t *testing.T) {
	l := workload.NewMatMul("m", 16, 32, 32)
	a := arch.CaseStudy()

	ser := Options{Spatial: arch.CaseStudySpatial(), BWAware: true, Workers: 1}
	ref, refStats, err := Enumerate(context.Background(), &l, a, &ser)
	if err != nil {
		t.Fatal(err)
	}
	// The space here has equal-score candidates; otherwise the order test
	// is vacuous.
	hasTie := false
	for i := 1; i < len(ref); i++ {
		if ref[i].Result.CCTotal == ref[i-1].Result.CCTotal {
			hasTie = true
			break
		}
	}
	if !hasTie {
		t.Fatal("test space has no score ties; pick a richer layer")
	}
	for i := 1; i < len(ref); i++ {
		prev, cur := ref[i-1], ref[i]
		if prev.Result.CCTotal > cur.Result.CCTotal {
			t.Fatal("not sorted by score")
		}
		if prev.Result.CCTotal == cur.Result.CCTotal &&
			prev.Mapping.Temporal.String() > cur.Mapping.Temporal.String() {
			t.Fatal("equal-score candidates not in canonical (lexicographic) order")
		}
	}

	for _, workers := range []int{1, 3, 4} {
		o := ser
		o.Workers = workers
		all, stats, err := Enumerate(context.Background(), &l, a, &o)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != len(ref) {
			t.Fatalf("workers=%d: %d candidates, want %d", workers, len(all), len(ref))
		}
		if *stats != *refStats {
			// Pruned is always 0 for Enumerate, so full struct equality.
			t.Errorf("workers=%d: stats %+v, want %+v", workers, stats, refStats)
		}
		for i := range all {
			if all[i].Result.CCTotal != ref[i].Result.CCTotal ||
				all[i].Mapping.Temporal.String() != ref[i].Mapping.Temporal.String() {
				t.Fatalf("workers=%d: candidate %d is %s (%v), want %s (%v)",
					workers, i,
					all[i].Mapping.Temporal, all[i].Result.CCTotal,
					ref[i].Mapping.Temporal, ref[i].Result.CCTotal)
			}
		}
	}
}

// TestPruneStatsExact checks that pruning never changes what the search
// counts or returns — only Stats.Pruned (trajectory-dependent) may differ —
// and that the prune actually fires on a serial run, where the best-so-far
// tightens exactly as it did in the old engine.
func TestPruneStatsExact(t *testing.T) {
	l := workload.NewMatMul("m", 32, 64, 64)
	a := arch.CaseStudy()

	pruned := Options{Spatial: arch.CaseStudySpatial(), BWAware: true, Workers: 1}
	full := pruned
	full.NoPrune = true

	cp, sp, err := Best(context.Background(), &l, a, &pruned)
	if err != nil {
		t.Fatal(err)
	}
	cf, sf, err := Best(context.Background(), &l, a, &full)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Result.CCTotal != cf.Result.CCTotal || cp.Mapping.Temporal.String() != cf.Mapping.Temporal.String() {
		t.Errorf("prune changed the result: %v/%s vs %v/%s",
			cp.Result.CCTotal, cp.Mapping.Temporal, cf.Result.CCTotal, cf.Mapping.Temporal)
	}
	if sp.NestsGenerated != sf.NestsGenerated || sp.Valid != sf.Valid || sp.Skipped != sf.Skipped {
		t.Errorf("prune changed exact stats: %+v vs %+v", sp, sf)
	}
	if sf.Pruned != 0 {
		t.Errorf("NoPrune run reports Pruned = %d", sf.Pruned)
	}
	if sp.Pruned == 0 {
		t.Error("prune never fired on a space where the bound is informative")
	}
	if sp.Pruned >= sp.Valid {
		t.Errorf("pruned %d of %d valid — bound fired on everything", sp.Pruned, sp.Valid)
	}
}

// TestMaxCandidatesCapParallel pins the cap semantics under concurrency:
// the WALK (orderings visited) stops exactly at the budget with the true
// remainder in Skipped, identically for any worker count; under NoReduce
// every walked ordering is also generated, so the old exact-cap behaviour
// is recovered.
func TestMaxCandidatesCapParallel(t *testing.T) {
	l := workload.NewMatMul("m", 32, 64, 64)
	a := arch.CaseStudy()
	for _, workers := range []int{1, 4} {
		for _, noReduce := range []bool{false, true} {
			o := Options{Spatial: arch.CaseStudySpatial(), BWAware: true,
				MaxCandidates: 40, Workers: workers, NoReduce: noReduce}
			_, stats, err := Best(context.Background(), &l, a, &o)
			if err != nil {
				t.Fatal(err)
			}
			if walked := stats.NestsGenerated + stats.ClassesMerged; walked != 40 {
				t.Errorf("workers=%d nosym=%v: walked %d, want exactly the budget 40",
					workers, noReduce, walked)
			}
			if noReduce && stats.NestsGenerated != 40 {
				t.Errorf("workers=%d: NoReduce generated %d, want 40", workers, stats.NestsGenerated)
			}
			if stats.Skipped == 0 {
				t.Errorf("workers=%d nosym=%v: cap hit but Skipped == 0", workers, noReduce)
			}
		}
	}
}

// TestLowerBoundAdmissible validates the branch-and-bound invariant the
// prune rests on, candidate by candidate: the bandwidth-unaware baseline
// score never exceeds the full model's CCTotal.
func TestLowerBoundAdmissible(t *testing.T) {
	l := workload.NewMatMul("m", 24, 48, 96)
	a := arch.CaseStudy()
	aware := Options{Spatial: arch.CaseStudySpatial(), BWAware: true, MaxCandidates: 2000, Workers: 1}
	unaware := aware
	unaware.BWAware = false

	full, _, err := Enumerate(context.Background(), &l, a, &aware)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := Enumerate(context.Background(), &l, a, &unaware)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(base) {
		t.Fatalf("candidate sets differ: %d vs %d", len(full), len(base))
	}
	// Index the baseline by mapping: the two enumerations sort differently.
	baseCC := make(map[string]float64, len(base))
	for _, c := range base {
		baseCC[c.Mapping.Temporal.String()] = c.Result.CCTotal
	}
	for _, c := range full {
		lb, ok := baseCC[c.Mapping.Temporal.String()]
		if !ok {
			t.Fatalf("mapping %s missing from baseline enumeration", c.Mapping.Temporal)
		}
		if lb > c.Result.CCTotal {
			t.Fatalf("bound not admissible for %s: baseline %v > full %v",
				c.Mapping.Temporal, lb, c.Result.CCTotal)
		}
	}
}

// TestAnnealParallelRestartsMatchSerial pins the annealer's restart merge:
// forcing the restarts through the shared pool cannot change the result
// because each chain is independently seeded and the merge is by restart
// order.
func TestAnnealParallelRestartsMatchSerial(t *testing.T) {
	l := workload.NewMatMul("m", 32, 64, 64)
	a := arch.CaseStudy()
	opt := &AnnealOptions{
		Spatial:    arch.CaseStudySpatial(),
		BWAware:    true,
		Iterations: 300,
		Restarts:   4,
		Seed:       7,
	}
	c1, err := Anneal(context.Background(), &l, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Anneal(context.Background(), &l, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Result.CCTotal != c2.Result.CCTotal || c1.Mapping.Temporal.String() != c2.Mapping.Temporal.String() {
		t.Errorf("anneal not reproducible: %v/%s vs %v/%s",
			c1.Result.CCTotal, c1.Mapping.Temporal, c2.Result.CCTotal, c2.Mapping.Temporal)
	}
}

// TestBestWorkersValidation covers the degenerate worker counts.
func TestBestWorkersValidation(t *testing.T) {
	l := workload.NewMatMul("m", 16, 32, 32)
	a := arch.CaseStudy()
	var want string
	for i, workers := range []int{0, 1, 2, 16} {
		o := Options{Spatial: arch.CaseStudySpatial(), BWAware: true, Workers: workers}
		cand, _, err := Best(context.Background(), &l, a, &o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := fmt.Sprintf("%s@%v", cand.Mapping.Temporal, cand.Result.CCTotal)
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("workers=%d: %s, want %s", workers, got, want)
		}
	}
}
