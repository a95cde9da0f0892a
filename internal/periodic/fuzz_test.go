package periodic

import "testing"

// FuzzUnionLength cross-checks the interval-merge union against the
// brute-force bitmap on arbitrary window shapes.
func FuzzUnionLength(f *testing.F) {
	f.Add(int64(4), int64(2), int64(1), int64(6), int64(3), int64(0))
	f.Add(int64(3), int64(1), int64(2), int64(5), int64(5), int64(0))
	f.Add(int64(8), int64(0), int64(0), int64(2), int64(1), int64(1))
	f.Fuzz(func(t *testing.T, p1, x1, s1, p2, x2, s2 int64) {
		clamp := func(p, x, s int64) (int64, int64, int64) {
			if p < 1 {
				p = 1
			}
			p = p%12 + 1
			if x < 0 {
				x = -x
			}
			x %= p + 1
			if s < 0 {
				s = -s
			}
			if p-x > 0 {
				s %= p - x + 1
			} else {
				s = 0
			}
			return p, x, s
		}
		p1, x1, s1 = clamp(p1, x1, s1)
		p2, x2, s2 = clamp(p2, x2, s2)
		span := p1 * p2 * 2
		a := Window{Period: p1, Active: x1, Start: s1, Count: span / p1}
		b := Window{Period: p2, Active: x2, Start: s2, Count: span / p2}
		if a.Validate() != nil || b.Validate() != nil {
			t.Fatalf("clamped windows invalid: %v %v", a, b)
		}
		got := UnionLength([]Window{a, b})
		want := bruteUnion([]Window{a, b})
		if got != want {
			t.Fatalf("union %d != brute %d for %v %v", got, want, a, b)
		}
	})
}

// FuzzUnionMixedSpans cross-checks the mixed-span branch: a group of two to
// four windows sharing one (Period, Start, Active) pattern with independent
// counts (zero allowed), plus one window of a second pattern.
func FuzzUnionMixedSpans(f *testing.F) {
	f.Add(int64(4), int64(1), int64(3), int64(8), int64(4), int64(0), int64(6), int64(2), int64(5), uint8(3))
	f.Add(int64(6), int64(6), int64(0), int64(2), int64(7), int64(1), int64(4), int64(0), int64(0), uint8(2))
	f.Fuzz(func(t *testing.T, p1, x1, z1, z2, z3, z4, p2, x2, z5 int64, g uint8) {
		p1, p2 = fuzzMod(p1, 12)+1, fuzzMod(p2, 12)+1
		x1, x2 = fuzzMod(x1, p1+1), fuzzMod(x2, p2+1)
		counts := []int64{z1, z2, z3, z4}[:2+int(g%3)]
		ws := make([]Window, 0, len(counts)+1)
		for _, z := range counts {
			ws = append(ws, Tail(p1, x1, fuzzMod(z, 10)))
		}
		ws = append(ws, Tail(p2, x2, fuzzMod(z5, 10)))
		got, exact := Union(ws)
		if want := bruteUnion(ws); got != want || !exact {
			t.Fatalf("union %d (exact %v) != brute %d for %v", got, exact, want, ws)
		}
	})
}

// FuzzIntersectLength cross-checks intersection against a bitmap count,
// with the two counts drawn independently so the common span need not be a
// multiple of the hyperperiod.
func FuzzIntersectLength(f *testing.F) {
	f.Add(int64(4), int64(2), int64(6), int64(3), int64(12), int64(8))
	f.Add(int64(4), int64(2), int64(6), int64(3), int64(5), int64(4))
	f.Fuzz(func(t *testing.T, p1, x1, p2, x2, z1, z2 int64) {
		p1, p2 = fuzzMod(p1, 10)+1, fuzzMod(p2, 10)+1
		a := Tail(p1, fuzzMod(x1, p1+1), fuzzMod(z1, 25))
		b := Tail(p2, fuzzMod(x2, p2+1), fuzzMod(z2, 25))
		span := a.Span()
		if b.Span() < span {
			span = b.Span()
		}
		got := IntersectLength(a, b)
		var want int64
		for tm := int64(0); tm < span; tm++ {
			if a.ActiveAt(tm) && b.ActiveAt(tm) {
				want++
			}
		}
		if got != want {
			t.Fatalf("intersect %d != brute %d for %v %v", got, want, a, b)
		}
	})
}

// fuzzMod maps an arbitrary fuzzer input into [0, m).
func fuzzMod(v, m int64) int64 {
	if v < 0 {
		v = -v
	}
	if v < 0 { // math.MinInt64
		v = 0
	}
	return v % m
}
