package fabric_test

// End-to-end determinism tests for the sharded search fabric: the fan-out —
// local goroutines, remote servemodel nodes (a real internal/serve server
// over httptest), node failover, mixed placements — must reproduce
// mapper.Best bit for bit for every shard count. This is an external test
// package because the serving side imports fabric.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/config"
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
// K in {1, 2, 7, 16}, capped, with and without the symmetry reduction.
func TestSearchLocalIdentity(t *testing.T) {
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
				cand, stats, err := fabric.Search(context.Background(), &l, hw, &mc.mo, &fabric.Options{Shards: k})
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				assertSameSearch(t, "local", ref, refStats, cand, stats)
			}
		})
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

// TestSearchStealIdentity: with work stealing gone, the Steals counter the
// ledger harness still passes in must read zero after any fan-out, local or
// remote, and the result must still match mapper.Best bit for bit.
func TestSearchStealIdentity(t *testing.T) {
	l := workload.ResNet18Suite()[3]
	hw, sp := arch.CaseStudy(), arch.CaseStudySpatial()
	mo := &mapper.Options{Spatial: sp, MaxCandidates: 4000}
	ref, refStats, err := mapper.Best(context.Background(), &l, hw, mo)
	if err != nil {
		t.Fatal(err)
	}
	node := quietServer(t)
	for _, fo := range []fabric.Options{
		{Shards: 7},
		{Shards: 5, Nodes: []string{node.URL}, ArchName: "casestudy", NoLocalFallback: true},
	} {
		var steals atomic.Int64
		fo.Steals = &steals
		cand, stats, err := fabric.Search(context.Background(), &l, hw, mo, &fo)
		if err != nil {
			t.Fatalf("k=%d nodes=%d: %v", fo.Shards, len(fo.Nodes), err)
		}
		assertSameSearch(t, "steals", ref, refStats, cand, stats)
		if n := steals.Load(); n != 0 {
			t.Errorf("k=%d nodes=%d: %d steals counted", fo.Shards, len(fo.Nodes), n)
		}
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

// TestShardRejectsMaxSplits: a shard request carries max_splits_per_dim on
// the wire, so a node rejects a value the walk cannot honour exactly as the
// local engine does, naming it, instead of walking the two-loop space.
func TestShardRejectsMaxSplits(t *testing.T) {
	node := quietServer(t)
	body, err := json.Marshal(&fabric.ShardRequest{
		Arch:            "casestudy",
		Layer:           config.Layer{Name: "m", Kind: "matmul", Dims: map[string]int64{"B": 16, "K": 32, "C": 32}},
		MaxSplitsPerDim: 3,
		Shard:           mapper.ShardSpec{Depth: 1, Lo: 0, Hi: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(node.URL+"/v1/shard", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(msg), "MaxSplitsPerDim 3") {
		t.Fatalf("shard with max_splits_per_dim 3: status %d body %s, want 422 naming MaxSplitsPerDim 3", resp.StatusCode, msg)
	}
}

// TestSearchCancellation: canceling mid-search aborts with the context's
// error and leaks no goroutines — neither the local shard walks nor the
// fan-out goroutines nor the remote calls.
func TestSearchCancellation(t *testing.T) {
	hw, sp := arch.CaseStudy(), arch.CaseStudySpatial()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	node := serve.New(serve.Config{Logger: quiet})

	before := runtime.NumGoroutine()

	// Local leg: a 30 ms deadline against an unreduced walk of 6,770,310
	// orderings that takes about 2.1 s uncanceled at 7 shards on two cores
	// (planning takes 5-10 ms), so the deadline lands mid-walk and a search
	// that ignored it would overrun the 500 ms bound below.
	big := workload.Im2Col(workload.NewConv2D("big", 48, 768, 768, 48, 48, 3, 3))
	bigOpts := &mapper.Options{Spatial: sp, MaxCandidates: 10_000_000, NoReduce: true}
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		t0 := time.Now()
		_, _, err := fabric.Search(ctx, &big, hw, bigOpts, &fabric.Options{Shards: 7})
		took := time.Since(t0)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("local: err = %v, want the context's deadline error", err)
		}
		if took > 500*time.Millisecond {
			t.Errorf("local: canceled search took %v to return", took)
		}
	}

	// Remote leg: the node cancels the search when the first shard request
	// reaches it, so the cancel lands inside the fan-out whatever the walk
	// speed.
	l := workload.ResNet18Suite()[3]
	mo := &mapper.Options{Spatial: sp, MaxCandidates: 4000}
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/shard" {
				once.Do(cancel)
			}
			node.Handler().ServeHTTP(w, r)
		}))
		_, _, err := fabric.Search(ctx, &l, hw, mo, &fabric.Options{Shards: 7, Nodes: []string{ts.URL}, ArchName: "casestudy"})
		cancel()
		ts.Close()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("remote: err = %v, want the context's cancellation error", err)
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
