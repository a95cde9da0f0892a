package mapper

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/workload"
)

// normalizeStats zeroes the trajectory-dependent Pruned counter: it depends
// on which candidates each worker/shard happened to evaluate first
// (documented in Stats); only the exact counters are part of the sharding
// determinism contract.
func normalizeStats(st Stats) Stats {
	st.Pruned = 0
	return st
}

// runSharded executes a full plan-execute-merge cycle with k shards.
func runSharded(t *testing.T, l *workload.Layer, a *arch.Arch, opt *Options, k int) (*Candidate, *Stats) {
	t.Helper()
	plan, err := PlanShards(context.Background(), l, a, opt, k)
	if err != nil {
		t.Fatalf("PlanShards(k=%d): %v", k, err)
	}
	if len(plan.Specs) != k {
		t.Fatalf("PlanShards(k=%d): got %d specs", k, len(plan.Specs))
	}
	outs := make([]*ShardOutcome, len(plan.Specs))
	for i, spec := range plan.Specs {
		out, err := BestShard(context.Background(), l, a, opt, spec)
		if err != nil {
			t.Fatalf("BestShard(k=%d, shard=%d): %v", k, i, err)
		}
		outs[i] = out
	}
	cand, stats, err := MergeShards(l, a, opt, outs)
	if err != nil {
		t.Fatalf("MergeShards(k=%d): %v", k, err)
	}
	return cand, stats
}

// TestShardedSearchIdentity: for every shard count the plan-execute-merge
// cycle reproduces the single-engine search bit for bit — same winning
// temporal nest, same score, same exact Stats counters — across architecture
// presets, with and without the symmetry reduction, and with a walk budget
// small enough to trip the cap mid-walk (the capped handoff path).
func TestShardedSearchIdentity(t *testing.T) {
	conv := workload.ResNet18Suite()[3]
	mm := workload.NewMatMul("mm", 64, 96, 128)
	cases := []struct {
		name string
		l    *workload.Layer
		a    *arch.Arch
		opt  Options
	}{
		{"conv/casestudy", &conv, arch.CaseStudy(), Options{Spatial: arch.CaseStudySpatial()}},
		{"matmul/inhouse", &mm, arch.InHouse(), Options{Spatial: arch.InHouseSpatial()}},
		{"conv/noreduce", &conv, arch.CaseStudy(), Options{Spatial: arch.CaseStudySpatial(), NoReduce: true, MaxCandidates: 4000}},
		{"conv/capped", &conv, arch.CaseStudy(), Options{Spatial: arch.CaseStudySpatial(), MaxCandidates: 700}},
		{"matmul/capped-edp", &mm, arch.InHouse(), Options{Spatial: arch.InHouseSpatial(), MaxCandidates: 900, Objective: MinEDP}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, refStats, err := Best(context.Background(), tc.l, tc.a, &tc.opt)
			if err != nil {
				t.Fatalf("Best: %v", err)
			}
			wantStats := normalizeStats(*refStats)
			for _, k := range []int{1, 2, 7, 16} {
				cand, stats, opt := (*Candidate)(nil), (*Stats)(nil), tc.opt
				cand, stats = runSharded(t, tc.l, tc.a, &opt, k)
				if cand == nil {
					t.Fatalf("k=%d: merge found no winner, Best did", k)
				}
				if got, want := cand.Mapping.Temporal.String(), ref.Mapping.Temporal.String(); got != want {
					t.Errorf("k=%d: winner %q, want %q", k, got, want)
				}
				if cand.Result.CCTotal != ref.Result.CCTotal {
					t.Errorf("k=%d: CCTotal %v, want %v", k, cand.Result.CCTotal, ref.Result.CCTotal)
				}
				if cand.EnergyPJ != ref.EnergyPJ {
					t.Errorf("k=%d: EnergyPJ %v, want %v", k, cand.EnergyPJ, ref.EnergyPJ)
				}
				if got := normalizeStats(*stats); !reflect.DeepEqual(got, wantStats) {
					t.Errorf("k=%d: stats %+v, want %+v", k, got, wantStats)
				}
			}
		})
	}
}

// TestShardedSearchIdentitySubSplit: the cap-concentrated case the prefix
// partition cannot balance — a conv whose full-depth walk holds one block
// multiset of 20160 distinct orderings with the budget capped so that the
// multiset is a large share of all visited work. The planner must cut
// through the multiset (sub-multiset specs), and the merge must still be bit
// for bit the single-engine search, with and without the symmetry reduction
// (classes straddling a mid-multiset boundary exercise the min-seq
// reconciliation).
func TestShardedSearchIdentitySubSplit(t *testing.T) {
	conv := workload.NewConv2D("capped", 1, 128, 128, 14, 14, 3, 3)
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"reduce", Options{Spatial: arch.CaseStudySpatial(), BWAware: true, MaxCandidates: 20000}},
		{"noreduce", Options{Spatial: arch.CaseStudySpatial(), BWAware: true, MaxCandidates: 20000, NoReduce: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, refStats, err := Best(context.Background(), &conv, arch.CaseStudy(), &tc.opt)
			if err != nil {
				t.Fatalf("Best: %v", err)
			}
			wantStats := normalizeStats(*refStats)
			subSplits := 0
			for _, k := range []int{1, 2, 7, 16} {
				opt := tc.opt
				plan, err := PlanShards(context.Background(), &conv, arch.CaseStudy(), &opt, k)
				if err != nil {
					t.Fatalf("PlanShards(k=%d): %v", k, err)
				}
				for _, sp := range plan.Specs {
					if sp.PermLo > 0 {
						subSplits++
					}
				}
				cand, stats := runSharded(t, &conv, arch.CaseStudy(), &opt, k)
				if cand == nil {
					t.Fatalf("k=%d: merge found no winner, Best did", k)
				}
				if got, want := cand.Mapping.Temporal.String(), ref.Mapping.Temporal.String(); got != want {
					t.Errorf("k=%d: winner %q, want %q", k, got, want)
				}
				if cand.Result.CCTotal != ref.Result.CCTotal {
					t.Errorf("k=%d: CCTotal %v, want %v", k, cand.Result.CCTotal, ref.Result.CCTotal)
				}
				if got := normalizeStats(*stats); !reflect.DeepEqual(got, wantStats) {
					t.Errorf("k=%d: stats %+v, want %+v", k, got, wantStats)
				}
			}
			if subSplits == 0 {
				t.Fatal("no plan used a sub-multiset boundary; the case no longer exercises PermLo/PermHi")
			}
		})
	}
}

// TestShardStealIdentity: truncating running shards at arbitrary positions
// and re-planning every remainder with SplitShard — the fabric's steal cycle
// — reproduces the single-engine search bit for bit for any truncation
// schedule, capped or not, with or without the reduction.
func TestShardStealIdentity(t *testing.T) {
	conv := workload.ResNet18Suite()[3]
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"reduce", Options{Spatial: arch.CaseStudySpatial()}},
		{"capped", Options{Spatial: arch.CaseStudySpatial(), MaxCandidates: 700}},
		{"noreduce-capped", Options{Spatial: arch.CaseStudySpatial(), NoReduce: true, MaxCandidates: 4000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, refStats, err := Best(context.Background(), &conv, arch.CaseStudy(), &tc.opt)
			if err != nil {
				t.Fatalf("Best: %v", err)
			}
			wantStats := normalizeStats(*refStats)
			for _, k := range []int{2, 7} {
				opt := tc.opt
				plan, err := PlanShards(context.Background(), &conv, arch.CaseStudy(), &opt, k)
				if err != nil {
					t.Fatalf("PlanShards(k=%d): %v", k, err)
				}
				var outs []*ShardOutcome
				truncated := 0
				queue := append([]ShardSpec(nil), plan.Specs...)
				for len(queue) > 0 {
					spec := queue[0]
					queue = queue[1:]
					ctl := NewShardControl(spec)
					if truncated < 3 {
						// Force a stop a prime number of visits in: an
						// arbitrary position no boundary arithmetic aligns
						// with.
						ctl.Truncate(spec.WalkedBefore + 37)
					}
					out, err := BestShardControlled(context.Background(), &conv, arch.CaseStudy(), &opt, spec, ctl)
					if err != nil {
						t.Fatalf("k=%d: BestShardControlled: %v", k, err)
					}
					outs = append(outs, out)
					if out.Truncated {
						truncated++
						pieces, err := SplitShard(context.Background(), &conv, arch.CaseStudy(), &opt, out.Resume, 2)
						if err != nil {
							t.Fatalf("k=%d: SplitShard: %v", k, err)
						}
						queue = append(queue, pieces...)
					}
				}
				if truncated == 0 {
					t.Fatalf("k=%d: no shard truncated; the schedule exercises nothing", k)
				}
				cand, stats, err := MergeShards(&conv, arch.CaseStudy(), &opt, outs)
				if err != nil {
					t.Fatalf("k=%d: MergeShards: %v", k, err)
				}
				if cand == nil {
					t.Fatalf("k=%d: merge found no winner, Best did", k)
				}
				if got, want := cand.Mapping.Temporal.String(), ref.Mapping.Temporal.String(); got != want {
					t.Errorf("k=%d: winner %q, want %q", k, got, want)
				}
				if got := normalizeStats(*stats); !reflect.DeepEqual(got, wantStats) {
					t.Errorf("k=%d (%d steals): stats %+v, want %+v", k, truncated, got, wantStats)
				}
			}
		})
	}
}

// TestSplitShardTiling: SplitShard's pieces chain exactly — first piece
// starts at the input spec's position, each boundary is shared, the last
// piece ends at the input's end, and WalkedBefore is monotone.
func TestSplitShardTiling(t *testing.T) {
	conv := workload.NewConv2D("capped", 1, 128, 128, 14, 14, 3, 3)
	opt := Options{Spatial: arch.CaseStudySpatial(), BWAware: true, MaxCandidates: 20000}
	plan, err := PlanShards(context.Background(), &conv, arch.CaseStudy(), &opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range plan.Specs {
		for _, m := range []int{1, 2, 5} {
			pieces, err := SplitShard(context.Background(), &conv, arch.CaseStudy(), &opt, spec, m)
			if err != nil {
				t.Fatalf("SplitShard(%+v, %d): %v", spec, m, err)
			}
			if len(pieces) == 0 || len(pieces) > m {
				t.Fatalf("SplitShard(%+v, %d): %d pieces", spec, m, len(pieces))
			}
			first, last := pieces[0], pieces[len(pieces)-1]
			if first.Lo != spec.Lo || first.PermLo != spec.PermLo || first.WalkedBefore != spec.WalkedBefore {
				t.Errorf("m=%d: first piece %+v does not start at %+v", m, first, spec)
			}
			if last.Hi != spec.Hi || last.PermHi != spec.PermHi {
				t.Errorf("m=%d: last piece %+v does not end at %+v", m, last, spec)
			}
			for i := 1; i < len(pieces); i++ {
				a, b := pieces[i-1], pieces[i]
				if b.Lo != a.Hi || b.PermLo != a.PermHi {
					t.Errorf("m=%d: pieces %d/%d do not chain: %+v then %+v", m, i-1, i, a, b)
				}
				if b.WalkedBefore < a.WalkedBefore {
					t.Errorf("m=%d: WalkedBefore went backwards at piece %d", m, i)
				}
			}
		}
	}
}

// TestShardPlanInvariants: shard specs tile [0, Prefixes) contiguously and
// the walk-state handoff is consistent (monotone WalkedBefore starting at 0;
// once the capped flag hands off true it stays true).
func TestShardPlanInvariants(t *testing.T) {
	conv := workload.ResNet18Suite()[3]
	opt := Options{Spatial: arch.CaseStudySpatial(), MaxCandidates: 700}
	for _, k := range []int{1, 2, 7, 16} {
		plan, err := PlanShards(context.Background(), &conv, arch.CaseStudy(), &opt, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if plan.Specs[0].Lo != 0 || plan.Specs[len(plan.Specs)-1].Hi != plan.Prefixes {
			t.Fatalf("k=%d: specs do not span [0, %d): %+v", k, plan.Prefixes, plan.Specs)
		}
		capped := false
		for i, sp := range plan.Specs {
			if sp.Lo > sp.Hi {
				t.Fatalf("k=%d shard %d: inverted range %+v", k, i, sp)
			}
			if i > 0 {
				prev := plan.Specs[i-1]
				if sp.Lo != prev.Hi || sp.PermLo != prev.PermHi {
					t.Fatalf("k=%d shard %d: gap/overlap at %d+%d (prev %d+%d)", k, i, sp.Lo, sp.PermLo, prev.Hi, prev.PermHi)
				}
				if sp.WalkedBefore < prev.WalkedBefore {
					t.Fatalf("k=%d shard %d: WalkedBefore went backwards", k, i)
				}
			} else if sp.WalkedBefore != 0 || sp.CappedBefore {
				t.Fatalf("k=%d: first shard has nonzero handoff %+v", k, sp)
			}
			if capped && !sp.CappedBefore {
				t.Fatalf("k=%d shard %d: capped flag reset mid-plan", k, i)
			}
			capped = sp.CappedBefore
		}
	}
}

// TestBestShardValidation: malformed specs are rejected, not walked.
func TestBestShardValidation(t *testing.T) {
	mm := workload.NewMatMul("mm", 32, 32, 32)
	opt := Options{Spatial: arch.InHouseSpatial()}
	for _, spec := range []ShardSpec{
		{Depth: 0, Lo: 0, Hi: 1},
		{Depth: 99, Lo: 0, Hi: 1},
		{Depth: 3, Lo: 2, Hi: 1},
		{Depth: 3, Lo: -1, Hi: 1},
		{Depth: 3, Lo: 1, Hi: 1, PermLo: 5, PermHi: 2},                           // inverted sub-range
		{Depth: 3, Lo: 0, Hi: 1, PermLo: -1},                                     // negative offset
		{Depth: 3, Lo: 0, Hi: 1, PermLo: 3, WalkedBefore: 1},                     // walked < perm offset
		{Depth: 3, Lo: 0, Hi: 1, PermLo: 1, WalkedBefore: 5, CappedBefore: true}, // capped at a visited position
	} {
		if _, err := BestShard(context.Background(), &mm, arch.InHouse(), &opt, spec); err == nil {
			t.Errorf("BestShard(%+v): expected error", spec)
		}
	}
}

// / TestPlanShardsCanceled: a canceled context aborts planning.
func TestPlanShardsCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	conv := workload.ResNet18Suite()[3]
	if _, err := PlanShards(ctx, &conv, arch.CaseStudy(), &Options{Spatial: arch.CaseStudySpatial()}, 4); err == nil {
		t.Fatal("expected context error")
	}
}
