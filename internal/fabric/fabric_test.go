package fabric_test

// End-to-end determinism tests for the sharded search fabric: the fan-out —
// local goroutines, remote servemodel nodes (a real internal/serve server
// over httptest), node failover, mixed placements — must reproduce
// mapper.Best bit for bit for every shard count. This is an external test
// package because the serving side imports fabric.

import (
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/fabric"
	"repro/internal/mapper"
	"repro/internal/serve"
	"repro/internal/workload"
)

func quietServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := serve.New(serve.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// normalize zeroes the trajectory-dependent Pruned counter (worker- and
// shard-placement-dependent; documented in mapper.Stats).
func normalize(st mapper.Stats) mapper.Stats {
	st.Pruned = 0
	return st
}

func assertSameSearch(t *testing.T, tag string, ref *mapper.Candidate, refStats *mapper.Stats, got *mapper.Candidate, gotStats *mapper.Stats) {
	t.Helper()
	if got.Mapping.Temporal.String() != ref.Mapping.Temporal.String() {
		t.Errorf("%s: winner %q, want %q", tag, got.Mapping.Temporal.String(), ref.Mapping.Temporal.String())
	}
	if got.Result.CCTotal != ref.Result.CCTotal || got.EnergyPJ != ref.EnergyPJ {
		t.Errorf("%s: score (%v, %v), want (%v, %v)", tag, got.Result.CCTotal, got.EnergyPJ, ref.Result.CCTotal, ref.EnergyPJ)
	}
	if a, b := normalize(*gotStats), normalize(*refStats); !reflect.DeepEqual(a, b) {
		t.Errorf("%s: stats %+v, want %+v", tag, a, b)
	}
}

// TestSearchLocalIdentity: the pure-local fan-out matches mapper.Best for
// K in {1, 2, 7, 16}.
func TestSearchLocalIdentity(t *testing.T) {
	l := workload.ResNet18Suite()[3]
	hw, sp := arch.CaseStudy(), arch.CaseStudySpatial()
	mo := &mapper.Options{Spatial: sp, MaxCandidates: 4000}
	ref, refStats, err := mapper.Best(context.Background(), &l, hw, mo)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 7, 16} {
		cand, stats, err := fabric.Search(context.Background(), &l, hw, mo, &fabric.Options{Shards: k})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		assertSameSearch(t, "local", ref, refStats, cand, stats)
	}
}

// TestSearchRemoteIdentity: shards executed by real servemodel nodes (one
// healthy, plus a failover case with a dead node first in rotation) still
// reproduce the local search exactly.
func TestSearchRemoteIdentity(t *testing.T) {
	l := workload.ResNet18Suite()[3]
	hw, sp := arch.CaseStudy(), arch.CaseStudySpatial()
	mo := &mapper.Options{Spatial: sp, MaxCandidates: 4000}
	ref, refStats, err := mapper.Best(context.Background(), &l, hw, mo)
	if err != nil {
		t.Fatal(err)
	}

	node := quietServer(t)
	dead := httptest.NewServer(nil)
	dead.Close()

	cases := []struct {
		name string
		fo   fabric.Options
	}{
		{"one-node", fabric.Options{Shards: 4, Nodes: []string{node.URL}, ArchName: "casestudy"}},
		{"two-nodes", fabric.Options{Shards: 7, Nodes: []string{node.URL, node.URL}, ArchName: "casestudy"}},
		{"failover", fabric.Options{Shards: 3, Nodes: []string{dead.URL, node.URL}, ArchName: "casestudy", NoLocalFallback: true}},
		{"inline-arch", fabric.Options{Shards: 4, Nodes: []string{node.URL}}},
		{"local-fallback", fabric.Options{Shards: 2, Nodes: []string{dead.URL}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cand, stats, err := fabric.Search(context.Background(), &l, hw, mo, &tc.fo)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSearch(t, tc.name, ref, refStats, cand, stats)
		})
	}

	// All nodes dead and local fallback disabled: the search must fail.
	_, _, err = fabric.Search(context.Background(), &l, hw, mo,
		&fabric.Options{Shards: 2, Nodes: []string{dead.URL}, ArchName: "casestudy", NoLocalFallback: true})
	if err == nil {
		t.Fatal("expected failure with every node dead and no local fallback")
	}
	if !strings.Contains(err.Error(), "failed on all") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestSearchStealIdentity: every executor-pool shape — fewer executors than
// shards (queue + tail stealing), surplus executors (immediate splitting),
// stealing disabled — reproduces mapper.Best bit for bit, capped and
// uncapped, with and without the symmetry reduction. The steal schedule is
// timing-dependent by nature; the merged result must not be.
func TestSearchStealIdentity(t *testing.T) {
	l := workload.ResNet18Suite()[3]
	hw, sp := arch.CaseStudy(), arch.CaseStudySpatial()
	for _, mc := range []struct {
		name string
		mo   mapper.Options
	}{
		{"capped", mapper.Options{Spatial: sp, MaxCandidates: 4000}},
		{"noreduce-capped", mapper.Options{Spatial: sp, MaxCandidates: 4000, NoReduce: true}},
	} {
		t.Run(mc.name, func(t *testing.T) {
			ref, refStats, err := mapper.Best(context.Background(), &l, hw, &mc.mo)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 2, 7, 16} {
				execs := k / 2
				if execs < 1 {
					execs = 1
				}
				for _, tc := range []struct {
					tag string
					fo  fabric.Options
				}{
					{"queue", fabric.Options{Shards: k, Executors: execs}},
					{"surplus", fabric.Options{Shards: k, Executors: k + 2}},
					{"nosteal", fabric.Options{Shards: k, Executors: execs, NoSteal: true}},
				} {
					var steals atomic.Int64
					tc.fo.Steals = &steals
					cand, stats, err := fabric.Search(context.Background(), &l, hw, &mc.mo, &tc.fo)
					if err != nil {
						t.Fatalf("k=%d %s: %v", k, tc.tag, err)
					}
					assertSameSearch(t, tc.tag, ref, refStats, cand, stats)
					if tc.fo.NoSteal && steals.Load() != 0 {
						t.Errorf("k=%d: %d steals with NoSteal set", k, steals.Load())
					}
				}
			}
		})
	}
}

// TestSearchRemoteSteal: a forced steal against a real servemodel node. The
// node holds every shard walk open (ShardDelay), so when one executor runs
// dry the victim is still inside its delay window and the steal POST lands
// deterministically: the search must report at least one steal, the node's
// steals counter must move, and the result must still match mapper.Best
// exactly.
func TestSearchRemoteSteal(t *testing.T) {
	s := serve.New(serve.Config{
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		ShardDelay: 200 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	l := workload.ResNet18Suite()[3]
	hw, sp := arch.CaseStudy(), arch.CaseStudySpatial()
	mo := &mapper.Options{Spatial: sp, MaxCandidates: 4000}
	ref, refStats, err := mapper.Best(context.Background(), &l, hw, mo)
	if err != nil {
		t.Fatal(err)
	}
	var steals atomic.Int64
	cand, stats, err := fabric.Search(context.Background(), &l, hw, mo, &fabric.Options{
		Shards: 3, Executors: 2, Nodes: []string{ts.URL}, ArchName: "casestudy", Steals: &steals,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameSearch(t, "remote-steal", ref, refStats, cand, stats)
	if steals.Load() == 0 {
		t.Fatal("forced-steal schedule landed no steal")
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	found := false
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "servemodel_fabric_steals_total ") {
			found = true
			if strings.TrimPrefix(line, "servemodel_fabric_steals_total ") == "0" {
				t.Errorf("node reports zero steals after a landed steal")
			}
		}
	}
	if !found {
		t.Error("servemodel_fabric_steals_total missing from /metrics")
	}
}

// TestSearchViaServeEndpoint: a sharded /v1/search on a coordinator node
// whose peers execute the shards answers byte-identically (modulo the
// trajectory-dependent "pruned" stat) to an unsharded search.
func TestSearchViaServeEndpoint(t *testing.T) {
	peer := quietServer(t)
	coord := serve.New(serve.Config{
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		Peers:  []string{peer.URL},
	})
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	l := workload.ResNet18Suite()[3]
	hw, sp := arch.CaseStudy(), arch.CaseStudySpatial()
	mo := &mapper.Options{Spatial: sp, MaxCandidates: 4000}
	ref, _, err := mapper.Best(context.Background(), &l, hw, mo)
	if err != nil {
		t.Fatal(err)
	}
	cand, stats, err := fabric.Search(context.Background(), &l, hw, mo,
		&fabric.Options{Shards: 4, Nodes: []string{cts.URL}, ArchName: "casestudy", Tenant: "fabric-test"})
	if err != nil {
		t.Fatal(err)
	}
	if cand.Mapping.Temporal.String() != ref.Mapping.Temporal.String() || cand.Result.CCTotal != ref.Result.CCTotal {
		t.Fatalf("served shard result diverged: %q cc=%v, want %q cc=%v",
			cand.Mapping.Temporal.String(), cand.Result.CCTotal, ref.Mapping.Temporal.String(), ref.Result.CCTotal)
	}
	_ = stats
}

// TestSearchCancellation: canceling mid-search aborts promptly with the
// context's error and leaks no goroutines — neither the local shard workers
// nor the fan-out goroutines.
func TestSearchCancellation(t *testing.T) {
	l := workload.NewConv2D("big", 4, 128, 128, 28, 28, 3, 3)
	lowered := workload.Im2Col(l)
	hw, sp := arch.CaseStudy(), arch.CaseStudySpatial()
	mo := &mapper.Options{Spatial: sp, MaxCandidates: 2_000_000, NoReduce: true}

	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		_, _, err := fabric.Search(ctx, &lowered, hw, mo, &fabric.Options{Shards: 7})
		cancel()
		if err == nil {
			t.Fatal("expected cancellation error")
		}
		if ctx.Err() == nil {
			t.Fatalf("search failed before the deadline: %v", err)
		}
	}
	// Goroutine counts settle asynchronously; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
