package fabric_test

// Tracing contract tests: spans are pure observation (bit-identical search
// with tracing on vs off, under -race via the package's race target), the
// span tree is well-formed (children nest inside parents on one clock),
// shard-walk position ranges tile the plan disjointly and exhaustively, and
// the assembled critical-path report's categories sum to the coordinator
// root's wall time exactly.

import (
	"context"
	"strconv"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/fabric"
	"repro/internal/mapper"
	"repro/internal/otrace"
	"repro/internal/workload"
)

// tracedSearch runs one sharded search with a live trace and returns the
// search outputs plus the recorded spans.
func tracedSearch(t *testing.T, fo *fabric.Options) (*mapper.Candidate, *mapper.Stats, otrace.WireTrace) {
	return tracedSearchIn(t, fo, otrace.TraceID{})
}

// tracedSearchIn pins the trace ID when non-zero (span IDs hash the trace
// ID, so cross-run ID comparisons need a fixed trace).
func tracedSearchIn(t *testing.T, fo *fabric.Options, tr otrace.TraceID) (*mapper.Candidate, *mapper.Stats, otrace.WireTrace) {
	t.Helper()
	l := workload.ResNet18Suite()[3]
	hw, sp := arch.CaseStudy(), arch.CaseStudySpatial()
	mo := &mapper.Options{Spatial: sp, MaxCandidates: 4000}
	rec := otrace.NewRecorder("coord", 0, 0)
	ctx, root := rec.JoinTrace(context.Background(), tr, otrace.SpanID{}, "fabric.search", "fabric")
	root.SetTid(1)
	cand, stats, err := fabric.Search(ctx, &l, hw, mo, fo)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	w, ok := rec.Export(root.TraceID())
	if !ok {
		t.Fatal("trace not recorded")
	}
	return cand, stats, w
}

// TestFabricTraceBitIdentity: the traced search returns exactly what the
// untraced one does.
func TestFabricTraceBitIdentity(t *testing.T) {
	l := workload.ResNet18Suite()[3]
	hw, sp := arch.CaseStudy(), arch.CaseStudySpatial()
	mo := &mapper.Options{Spatial: sp, MaxCandidates: 4000}
	ref, refStats, err := fabric.Search(context.Background(), &l, hw, mo, &fabric.Options{Shards: 7})
	if err != nil {
		t.Fatal(err)
	}
	cand, stats, _ := tracedSearch(t, &fabric.Options{Shards: 7})
	assertSameSearch(t, "traced-vs-untraced", ref, refStats, cand, stats)
}

// spanIndex maps exported spans by ID and groups walk spans.
func spanIndex(w otrace.WireTrace) (byID map[string]otrace.WireSpan, walks []otrace.WireSpan) {
	byID = map[string]otrace.WireSpan{}
	for _, s := range w.Spans {
		byID[s.ID] = s
	}
	for _, s := range w.Spans {
		if s.Name == "shard.walk" {
			walks = append(walks, s)
		}
	}
	return byID, walks
}

// TestFabricSpanTreeInvariants: every span has a recorded parent (except
// the root), children nest inside their parent's window (same clock, so
// exact up to the recorded durations), and walk ranges tile the plan.
func TestFabricSpanTreeInvariants(t *testing.T) {
	// "nosteal": the plain planned fan-out, the only schedule the fabric has.
	t.Run("nosteal", func(t *testing.T) {
		_, _, w := tracedSearch(t, &fabric.Options{Shards: 5})
		byID, walks := spanIndex(w)

		var root otrace.WireSpan
		for _, s := range w.Spans {
			if s.Parent == "" {
				if root.ID != "" {
					t.Fatalf("two parentless spans: %s and %s", root.ID, s.ID)
				}
				root = s
			}
		}
		if root.Name != "fabric.search" {
			t.Fatalf("root span %q", root.Name)
		}
		const slop = int64(2 * time.Millisecond) // clock-read slop between span creation and parent End
		for _, s := range w.Spans {
			if s.Parent == "" {
				continue
			}
			p, ok := byID[s.Parent]
			if !ok {
				t.Fatalf("span %s (%s) has unknown parent %s", s.ID, s.Name, s.Parent)
			}
			if s.StartNS < p.StartNS-slop || s.StartNS+s.DurNS > p.StartNS+p.DurNS+slop {
				t.Errorf("span %s (%s) [%d,+%d] escapes parent %s [%d,+%d]",
					s.ID, s.Name, s.StartNS, s.DurNS, p.Name, p.StartNS, p.DurNS)
			}
		}

		// Walk ranges [pos_lo, pos_hi) must be disjoint and exhaustive over
		// [0, total): the tracing view of the fabric's ownership contract.
		var plan otrace.WireSpan
		for _, s := range w.Spans {
			if s.Name == "fabric.plan" {
				plan = s
			}
		}
		total, err := strconv.ParseInt(plan.Attrs["total"], 10, 64)
		if err != nil || total <= 0 {
			t.Fatalf("fabric.plan total attr: %v (%v)", plan.Attrs, err)
		}
		type rng struct{ lo, hi int64 }
		var owned []rng
		for _, s := range walks {
			lo, err1 := strconv.ParseInt(s.Attrs["pos_lo"], 10, 64)
			hi, err2 := strconv.ParseInt(s.Attrs["pos_hi"], 10, 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("walk span attrs: %v", s.Attrs)
			}
			if hi > lo {
				owned = append(owned, rng{lo: lo, hi: hi})
			}
		}
		for i := range owned {
			for j := range owned {
				if i < j && owned[i].lo < owned[j].hi && owned[j].lo < owned[i].hi {
					t.Fatalf("walk ranges overlap: %v and %v", owned[i], owned[j])
				}
			}
		}
		var covered int64
		for _, r := range owned {
			covered += r.hi - r.lo
		}
		if covered != total {
			t.Fatalf("walk ranges cover %d of %d positions", covered, total)
		}
	})
}

// TestFabricCriticalPathIdentity: assembling a real local run attributes
// every nanosecond of root wall time, exactly.
func TestFabricCriticalPathIdentity(t *testing.T) {
	_, _, w := tracedSearch(t, &fabric.Options{Shards: 6})
	a, err := otrace.Assemble("coord", []otrace.WireTrace{w})
	if err != nil {
		t.Fatal(err)
	}
	rep := a.Report
	if rep.DiffNS != 0 || rep.SumNS != rep.WallNS {
		t.Fatalf("accounting identity broken: sum=%d wall=%d diff=%d", rep.SumNS, rep.WallNS, rep.DiffNS)
	}
	for name, v := range map[string]int64{
		"plan": rep.PlanNS, "queue": rep.QueueNS, "walk": rep.WalkNS,
		"memo": rep.MemoNS, "network": rep.NetworkNS,
		"merge": rep.MergeNS, "other": rep.OtherNS,
	} {
		if v < 0 {
			t.Errorf("%s is negative: %d", name, v)
		}
	}
	if rep.WalkNS == 0 {
		t.Errorf("local sharded search attributed no walk time")
	}
	// The shards walk almost the whole window; "other" (untracked
	// coordinator time) must stay a modest fraction of wall.
	if rep.WallNS > 0 && rep.OtherNS > rep.WallNS/2 {
		t.Errorf("other = %d ns of %d ns wall (> 50%%)", rep.OtherNS, rep.WallNS)
	}
}

// TestFabricTraceDeterministicIDs: two identical runs under the same trace
// ID produce the same span IDs for the same logical spans (walks keyed by
// position range), regardless of goroutine interleaving.
func TestFabricTraceDeterministicIDs(t *testing.T) {
	tr, _ := otrace.ParseTraceID("00112233445566778899aabbccddeeff")
	ids := func() map[string]string {
		_, _, w := tracedSearchIn(t, &fabric.Options{Shards: 5}, tr)
		m := map[string]string{}
		for _, s := range w.Spans {
			switch s.Name {
			case "shard.walk":
				m[s.Name+"/"+s.Attrs["pos_lo"]] = s.ID
			case "fabric.plan", "fabric.merge":
				m[s.Name] = s.ID
			}
		}
		return m
	}
	a, b := ids(), ids()
	if len(a) != len(b) {
		t.Fatalf("span sets differ: %d vs %d", len(a), len(b))
	}
	for k, id := range a {
		if b[k] != id {
			t.Errorf("span %s: id %s vs %s across identical runs", k, id, b[k])
		}
	}
}
