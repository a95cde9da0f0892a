package fabric_test

// Shard-count scaling on a BenchmarkMapperSearch-class workload, measured two
// ways because wall clock only shows fan-out speedup when the machine (or
// fleet) actually has K cores:
//
//   - BenchmarkFabricSearch/k=K: wall clock of the whole fabric.Search call —
//     plan, K concurrent shards, merge. On a single-CPU runner this is flat
//     in K (the shards time-slice one core); on an K-core machine or an
//     K-node fleet it tracks the critical path below.
//   - BenchmarkFabricShardWork/k=K: the K shards of one planned search
//     executed serially. ns/op is the TOTAL sharded work — its flatness
//     across K demonstrates the partition duplicates nothing — and the
//     critpath-ns/op metric is the slowest single shard: the wall clock a
//     fleet with >= K cores would see, which is what must fall
//     near-linearly in K.
//
// `make bench` records both in BENCH_mapper.json; EXPERIMENTS.md reads the
// scaling off critpath-ns/op.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/fabric"
	"repro/internal/mapper"
	"repro/internal/workload"
)

func fabricBenchProblem() (workload.Layer, *mapper.Options) {
	// BenchmarkMapperSearch's matmul, but with the candidate budget above the
	// ~19.5k orderings of the full walk. An early cap concentrates all visited
	// work into the first few full-depth prefixes — single block multisets
	// whose permutations are the partition's indivisible unit — and no planner
	// can balance a walk whose budget lives inside one multiset. Uncapped, the
	// heaviest multiset is ~4% of the walk and the greedy partition is near
	// even for every K measured here.
	layer := workload.NewMatMul("search", 128, 128, 128)
	mo := &mapper.Options{
		Spatial: arch.CaseStudySpatial(), BWAware: true, MaxCandidates: 50_000,
		NoReduce: true,
	}
	return layer, mo
}

func BenchmarkFabricSearch(b *testing.B) {
	layer, mo := fabricBenchProblem()
	hw := arch.CaseStudy()
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			fo := &fabric.Options{Shards: k}
			for i := 0; i < b.N; i++ {
				if _, _, err := fabric.Search(context.Background(), &layer, hw, mo, fo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFabricShardWork(b *testing.B) {
	layer, mo := fabricBenchProblem()
	benchShardWork(b, layer, mo)
}

// BenchmarkFabricShardWorkCapped is the cap-concentrated case the prefix
// partition cannot balance: a 3x3 conv whose full-depth walk holds a single
// block multiset of 20160 distinct orderings, with the candidate budget capped
// at 50k so that one multiset is ~40% of all visited work. Any plan that can
// only cut between prefixes must hand some shard that whole multiset
// (critpath >= 40% of total at every K >= 3); sub-multiset ranges cut through
// it, so critpath-ns/op should keep falling ~linearly in K.
func BenchmarkFabricShardWorkCapped(b *testing.B) {
	layer := workload.NewConv2D("capped", 1, 128, 128, 14, 14, 3, 3)
	mo := &mapper.Options{
		Spatial: arch.CaseStudySpatial(), BWAware: true, MaxCandidates: 50_000,
		NoReduce: true,
	}
	benchShardWork(b, layer, mo)
}

func benchShardWork(b *testing.B, layer workload.Layer, mo *mapper.Options) {
	hw := arch.CaseStudy()
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			plan, err := mapper.PlanShards(context.Background(), &layer, hw, mo, k)
			if err != nil {
				b.Fatal(err)
			}
			var critSum time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var crit time.Duration
				for _, spec := range plan.Specs {
					t0 := time.Now()
					if _, err := mapper.BestShard(context.Background(), &layer, hw, mo, spec); err != nil {
						b.Fatal(err)
					}
					if d := time.Since(t0); d > crit {
						crit = d
					}
				}
				critSum += crit
			}
			b.ReportMetric(float64(critSum.Nanoseconds())/float64(b.N), "critpath-ns/op")
		})
	}
}
