package mapper

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// countingHooks installs every hook field and tallies deliveries. The
// callbacks race across workers, so the counters are atomics and the
// mutable snapshot fields sit behind a mutex.
type countingHooks struct {
	phases    sync.Map // name -> *atomic.Int64
	durs      sync.Map // name -> *atomic.Int64, total nanoseconds
	progress  atomic.Int64
	improved  atomic.Int64
	annealed  atomic.Int64
	mu        sync.Mutex
	lastFinal obs.SearchProgress
	bests     []float64 // improvement scores in delivery order
}

func (c *countingHooks) hooks() *obs.SearchHooks {
	return &obs.SearchHooks{
		Phase: func(name string, d time.Duration) {
			v, _ := c.phases.LoadOrStore(name, new(atomic.Int64))
			v.(*atomic.Int64).Add(1)
			v, _ = c.durs.LoadOrStore(name, new(atomic.Int64))
			v.(*atomic.Int64).Add(int64(d))
		},
		Progress: func(p obs.SearchProgress) {
			c.progress.Add(1)
			if p.Done {
				c.mu.Lock()
				c.lastFinal = p
				c.mu.Unlock()
			}
		},
		ImprovedBest: func(score float64, seq int64) {
			c.improved.Add(1)
			c.mu.Lock()
			c.bests = append(c.bests, score)
			c.mu.Unlock()
		},
		AnnealProgress: func(chain, iter int, best float64) {
			c.annealed.Add(1)
		},
	}
}

func (c *countingHooks) phaseCount(name string) int64 {
	v, ok := c.phases.Load(name)
	if !ok {
		return 0
	}
	return v.(*atomic.Int64).Load()
}

func (c *countingHooks) phaseTime(name string) time.Duration {
	v, ok := c.durs.Load(name)
	if !ok {
		return 0
	}
	return time.Duration(v.(*atomic.Int64).Load())
}

// TestHooksDoNotPerturbSearch is the telemetry contract: a search with
// every hook installed returns the same candidate, the same bit-identical
// score and the same exact Stats as a hookless run — serial and parallel
// (run under -race this also proves the observation sites are data-race
// free against the worker pool).
func TestHooksDoNotPerturbSearch(t *testing.T) {
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.o
			ref.Workers = 4
			refCand, refStats, refErr := Best(context.Background(), &tc.l, tc.a, &ref)

			for _, workers := range []int{1, 4} {
				ch := &countingHooks{}
				o := tc.o
				o.Workers = workers
				o.Hooks = ch.hooks()
				cand, stats, err := Best(context.Background(), &tc.l, tc.a, &o)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("workers=%d: err = %v, reference err = %v", workers, err, refErr)
				}
				if err != nil {
					continue
				}
				if cand.Score(tc.o.Objective) != refCand.Score(tc.o.Objective) {
					t.Errorf("workers=%d: score = %v, want bit-identical %v",
						workers, cand.Score(tc.o.Objective), refCand.Score(tc.o.Objective))
				}
				if got, want := cand.Mapping.Temporal.String(), refCand.Mapping.Temporal.String(); got != want {
					t.Errorf("workers=%d: mapping %s, want %s", workers, got, want)
				}
				// Every exact counter must match; Pruned is documented as
				// trajectory-dependent (scheduling-sensitive), so it is
				// excluded from the byte-identity check.
				gotStats, wantStats := *stats, *refStats
				gotStats.Pruned, wantStats.Pruned = 0, 0
				if gotStats != wantStats {
					t.Errorf("workers=%d: stats %+v, want %+v", workers, gotStats, wantStats)
				}

				// The hooks must actually have observed the search.
				if n := ch.phaseCount("search"); n != 1 {
					t.Errorf("workers=%d: search phase fired %d times, want 1", workers, n)
				}
				if n := ch.phaseCount("generate"); n != 1 {
					t.Errorf("workers=%d: generate phase fired %d times, want 1", workers, n)
				}
				// The serial path scores inline and reports that time as its
				// own phase, disjoint from generate: both fit in the search.
				wantScore := int64(0)
				if workers == 1 {
					wantScore = 1
				}
				if n := ch.phaseCount("score"); n != wantScore {
					t.Errorf("workers=%d: score phase fired %d times, want %d", workers, n, wantScore)
				}
				if gen, score, search := ch.phaseTime("generate"), ch.phaseTime("score"), ch.phaseTime("search"); gen < 0 || gen+score > search {
					t.Errorf("workers=%d: generate %v + score %v exceed search %v", workers, gen, score, search)
				}
				if ch.progress.Load() < 1 {
					t.Errorf("workers=%d: no progress snapshot delivered", workers)
				}
				if ch.improved.Load() < 1 {
					t.Errorf("workers=%d: no ImprovedBest delivered", workers)
				}
				ch.mu.Lock()
				final := ch.lastFinal
				bests := append([]float64(nil), ch.bests...)
				ch.mu.Unlock()
				if !final.Done {
					t.Fatalf("workers=%d: no final (Done) snapshot", workers)
				}
				if final.Valid != int64(stats.Valid) || final.Generated != int64(stats.NestsGenerated) ||
					final.ClassesMerged != int64(stats.ClassesMerged) || final.Pruned != int64(stats.Pruned) {
					t.Errorf("workers=%d: final snapshot %+v disagrees with stats %+v", workers, final, *stats)
				}
				if final.BestCC != cand.Score(tc.o.Objective) {
					t.Errorf("workers=%d: final BestCC %v, want %v", workers, final.BestCC, cand.Score(tc.o.Objective))
				}
				for i := 1; i < len(bests); i++ {
					if bests[i] >= bests[i-1] {
						t.Errorf("workers=%d: ImprovedBest not strictly decreasing: %v", workers, bests)
						break
					}
				}
			}
		})
	}
}

// TestHooksNilFieldsSafe proves a SearchHooks with nil fields (and a nil
// *SearchHooks) never panics at any emit site.
func TestHooksNilFieldsSafe(t *testing.T) {
	var nilHooks *obs.SearchHooks
	nilHooks.EmitPhase("x", 0)
	nilHooks.EmitProgress(obs.SearchProgress{})
	nilHooks.EmitImprovedBest(1, 2)
	nilHooks.EmitAnnealProgress(0, 0, math.Inf(1))

	tc := equivCases()[0]
	o := tc.o
	o.Hooks = &obs.SearchHooks{} // installed but all fields nil
	if _, _, err := Best(context.Background(), &tc.l, tc.a, &o); err != nil {
		t.Fatal(err)
	}
}

// TestHooksDoNotPerturbAnneal: the annealer consumes identical rng streams
// with and without hooks, so the returned candidate is bit-identical.
func TestHooksDoNotPerturbAnneal(t *testing.T) {
	tc := equivCases()[0]
	ao := AnnealOptions{Spatial: tc.o.Spatial, BWAware: true, Iterations: 600, Restarts: 2, Seed: 7}
	ref, err := Anneal(context.Background(), &tc.l, tc.a, &ao)
	if err != nil {
		t.Fatal(err)
	}

	ch := &countingHooks{}
	hooked := ao
	hooked.Hooks = ch.hooks()
	got, err := Anneal(context.Background(), &tc.l, tc.a, &hooked)
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.CCTotal != ref.Result.CCTotal {
		t.Errorf("CCTotal with hooks %v, want bit-identical %v", got.Result.CCTotal, ref.Result.CCTotal)
	}
	if got.Mapping.Temporal.String() != ref.Mapping.Temporal.String() {
		t.Errorf("mapping %s, want %s", got.Mapping.Temporal, ref.Mapping.Temporal)
	}
	if n := ch.phaseCount("anneal"); n != 1 {
		t.Errorf("anneal phase fired %d times, want 1", n)
	}
	if ch.annealed.Load() < 2 {
		t.Errorf("anneal progress fired %d times, want >= one per chain", ch.annealed.Load())
	}
}
