package periodic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstructors(t *testing.T) {
	f := Full(8, 3)
	if !f.IsFull() || f.Span() != 24 || f.TotalActive() != 24 {
		t.Errorf("Full wrong: %+v", f)
	}
	k := Tail(8, 2, 3)
	if k.Start != 6 || k.Active != 2 || k.TotalActive() != 6 {
		t.Errorf("Tail wrong: %+v", k)
	}
	// Tail clamps active to period.
	k2 := Tail(4, 9, 1)
	if k2.Active != 4 || k2.Start != 0 {
		t.Errorf("Tail clamp wrong: %+v", k2)
	}
}

func TestValidate(t *testing.T) {
	good := []Window{Full(4, 0), Tail(4, 1, 2), {Period: 5, Active: 0, Start: 0, Count: 1}}
	for _, w := range good {
		if err := w.Validate(); err != nil {
			t.Errorf("%v: %v", w, err)
		}
	}
	bad := []Window{
		{Period: 0, Active: 0, Count: 1},
		{Period: 4, Active: 5, Count: 1},
		{Period: 4, Active: -1, Count: 1},
		{Period: 4, Active: 2, Start: 3, Count: 1},
		{Period: 4, Active: 2, Start: -1, Count: 1},
		{Period: 4, Active: 2, Count: -1},
	}
	for _, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("%v validated", w)
		}
	}
}

func TestActiveAt(t *testing.T) {
	w := Tail(4, 1, 2) // active at cycles 3 and 7
	wantActive := map[int64]bool{3: true, 7: true}
	for tm := int64(-1); tm < 10; tm++ {
		if got := w.ActiveAt(tm); got != wantActive[tm] {
			t.Errorf("ActiveAt(%d) = %v", tm, got)
		}
	}
}

// bruteUnion computes the union length by bitmap for small spans.
func bruteUnion(ws []Window) int64 {
	span := int64(0)
	for _, w := range ws {
		if w.Span() > span {
			span = w.Span()
		}
	}
	var n int64
	for t := int64(0); t < span; t++ {
		for _, w := range ws {
			if w.ActiveAt(t) {
				n++
				break
			}
		}
	}
	return n
}

func TestUnionLengthBasic(t *testing.T) {
	// Single window.
	if got := UnionLength([]Window{Tail(8, 2, 4)}); got != 8 {
		t.Errorf("single union = %d, want 8", got)
	}
	// Full window dominates.
	ws := []Window{Full(8, 4), Tail(4, 1, 8)}
	if got := UnionLength(ws); got != 32 {
		t.Errorf("full union = %d, want 32", got)
	}
	// Empty set.
	if got := UnionLength(nil); got != 0 {
		t.Errorf("empty union = %d", got)
	}
	// All-zero-active windows.
	if got := UnionLength([]Window{{Period: 4, Active: 0, Count: 4}}); got != 0 {
		t.Errorf("zero-active union = %d", got)
	}
}

func TestUnionLengthDisjointTails(t *testing.T) {
	// Two keep-out windows, same period, non-overlapping actives.
	a := Window{Period: 8, Active: 2, Start: 0, Count: 4}
	b := Window{Period: 8, Active: 2, Start: 4, Count: 4}
	if got := UnionLength([]Window{a, b}); got != 16 {
		t.Errorf("disjoint union = %d, want 16", got)
	}
	// Overlapping actives.
	c := Window{Period: 8, Active: 4, Start: 0, Count: 4}
	d := Window{Period: 8, Active: 4, Start: 2, Count: 4}
	if got := UnionLength([]Window{c, d}); got != 24 {
		t.Errorf("overlap union = %d, want 24", got)
	}
}

func TestUnionLengthDivisiblePeriods(t *testing.T) {
	// Period 4 tail inside period 8 tail: brute-check.
	a := Tail(4, 1, 8) // active {3,7,11,...}
	b := Tail(8, 3, 4) // active {5,6,7, 13,14,15, ...}
	ws := []Window{a, b}
	if got, want := UnionLength(ws), bruteUnion(ws); got != want {
		t.Errorf("union = %d, brute = %d", got, want)
	}
}

func TestUnionLengthCoprimePeriods(t *testing.T) {
	a := Tail(3, 1, 10) // span 30
	b := Tail(5, 2, 6)  // span 30
	ws := []Window{a, b}
	if got, want := UnionLength(ws), bruteUnion(ws); got != want {
		t.Errorf("coprime union = %d, brute = %d", got, want)
	}
}

func TestUnionLengthMixedSpans(t *testing.T) {
	a := Tail(4, 1, 8) // span 32
	b := Tail(4, 2, 4) // span 16 (shorter)
	ws := []Window{a, b}
	if got, want := UnionLength(ws), bruteUnion(ws); got != want {
		t.Errorf("mixed-span union = %d, brute = %d", got, want)
	}
}

func TestUnionAgainstBruteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(4) + 1
		ws := make([]Window, n)
		span := int64((rng.Intn(6) + 1) * 12) // multiple of many periods
		for i := range ws {
			periods := []int64{2, 3, 4, 6, 12}
			p := periods[rng.Intn(len(periods))]
			x := rng.Int63n(p + 1)
			s := int64(0)
			if p-x > 0 {
				s = rng.Int63n(p - x + 1)
			}
			ws[i] = Window{Period: p, Active: x, Start: s, Count: span / p}
		}
		got := UnionLength(ws)
		want := bruteUnion(ws)
		if got != want {
			t.Fatalf("trial %d: union = %d, brute = %d, ws = %v", trial, got, want, ws)
		}
		if !UnionExact(ws) {
			t.Fatalf("trial %d: expected exact union", trial)
		}
	}

	// Mixed spans: counts drawn independently (zero included), and most
	// trials hold a same-pattern group of 2–4 windows that differ only in
	// Count, the shape the union folds.
	draw := func() Window {
		periods := []int64{1, 2, 3, 4, 5, 6, 8, 12}
		p := periods[rng.Intn(len(periods))]
		x := rng.Int63n(p + 1)
		s := int64(0)
		if p-x > 0 {
			s = rng.Int63n(p - x + 1)
		}
		return Window{Period: p, Active: x, Start: s, Count: rng.Int63n(9)}
	}
	for trial := 0; trial < 3000; trial++ {
		var ws []Window
		if rng.Intn(4) != 0 {
			pat := draw()
			for g := 2 + rng.Intn(3); g > 0; g-- {
				w := pat
				w.Count = rng.Int63n(9)
				ws = append(ws, w)
			}
		}
		for n := rng.Intn(3); n > 0 || len(ws) == 0; n-- {
			ws = append(ws, draw())
		}
		rng.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
		in := append([]Window(nil), ws...)
		got, exact := Union(ws)
		if want := bruteUnion(ws); got != want || !exact {
			t.Fatalf("mixed trial %d: union = %d (exact %v), brute = %d, ws = %v", trial, got, exact, want, ws)
		}
		for i := range ws {
			if ws[i] != in[i] {
				t.Fatalf("mixed trial %d: Union modified its input: %v -> %v", trial, in, ws)
			}
		}
	}
}

// TestUnionFoldSamePattern: a same-pattern group folds into its
// largest-count member even when expanding every period would exceed the
// interval cap, while a set that still holds two patterns after folding
// keeps the fallback decision of its unfolded windows.
func TestUnionFoldSamePattern(t *testing.T) {
	big := Tail(4, 1, 1<<20)
	small := big
	small.Count = big.Count - 1 // Σ(Count+1) over the pair exceeds maxUnionIntervals
	if u, exact := Union([]Window{small, big}); u != big.TotalActive() || !exact {
		t.Errorf("same-pattern group: union %d exact %v, want %d exact", u, exact, big.TotalActive())
	}
	other := Tail(3, 1, 5)
	u, exact := Union([]Window{small, big, other})
	if exact || u != big.TotalActive() {
		t.Errorf("two patterns past the cap: union %d exact %v, want fallback %d", u, exact, big.TotalActive())
	}
}

func TestUnionProperties(t *testing.T) {
	// Union >= max member, <= min(span, sum of members).
	f := func(p1, p2, x1, x2 uint8) bool {
		per1 := int64(p1%6) + 1
		per2 := int64(p2%6) + 1
		a1 := int64(x1) % (per1 + 1)
		a2 := int64(x2) % (per2 + 1)
		span := per1 * per2 * 4
		ws := []Window{
			Tail(per1, a1, span/per1),
			Tail(per2, a2, span/per2),
		}
		u := UnionLength(ws)
		lo := ws[0].TotalActive()
		if ws[1].TotalActive() > lo {
			lo = ws[1].TotalActive()
		}
		hi := ws[0].TotalActive() + ws[1].TotalActive()
		if span < hi {
			hi = span
		}
		return u >= lo && u <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntersectLength(t *testing.T) {
	// Same window: intersection = total active.
	a := Tail(8, 2, 4)
	if got := IntersectLength(a, a); got != a.TotalActive() {
		t.Errorf("self intersect = %d", got)
	}
	// Disjoint actives.
	b := Window{Period: 8, Active: 2, Start: 0, Count: 4}
	if got := IntersectLength(a, b); got != 0 {
		t.Errorf("disjoint intersect = %d", got)
	}
	// Full vs tail: intersection = tail's active.
	if got := IntersectLength(Full(8, 4), a); got != a.TotalActive() {
		t.Errorf("full∩tail = %d", got)
	}
	// Brute-force check on coprime periods.
	c := Tail(3, 1, 10)
	d := Tail(5, 2, 6)
	want := int64(0)
	for tm := int64(0); tm < 30; tm++ {
		if c.ActiveAt(tm) && d.ActiveAt(tm) {
			want++
		}
	}
	if got := IntersectLength(c, d); got != want {
		t.Errorf("coprime intersect = %d, want %d", got, want)
	}
	// A common span that is not a multiple of lcm(4, 6) = 12: the
	// remainder [12, 20) holds one more overlapping cycle.
	if got := IntersectLength(Tail(4, 2, 5), Tail(6, 3, 4)); got != 4 {
		t.Errorf("remainder intersect = %d, want 4", got)
	}
}

// TestIntersectAgainstBruteSweep checks every pair of tail windows with
// period <= 8 and count <= 7 against the bitmap count.
func TestIntersectAgainstBruteSweep(t *testing.T) {
	var ws []Window
	for p := int64(1); p <= 8; p++ {
		for x := int64(0); x <= p; x++ {
			for z := int64(0); z <= 7; z++ {
				ws = append(ws, Tail(p, x, z))
			}
		}
	}
	for _, a := range ws {
		for _, b := range ws {
			span := a.Span()
			if b.Span() < span {
				span = b.Span()
			}
			var want int64
			for tm := int64(0); tm < span; tm++ {
				if a.ActiveAt(tm) && b.ActiveAt(tm) {
					want++
				}
			}
			if got := IntersectLength(a, b); got != want {
				t.Fatalf("intersect %v %v = %d, brute %d", a, b, got, want)
			}
		}
	}
}

func TestIntersectPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("IntersectLength on invalid window did not panic")
		}
	}()
	IntersectLength(Window{Period: 0}, Full(4, 1))
}

func TestUnionFallbackMonotone(t *testing.T) {
	// Construct a pathological pair (huge coprime periods) that would
	// exceed the interval cap, and check the fallback lower bound.
	a := Tail(1<<20+1, 1, 1<<12)
	b := Tail(1<<20-1, 1, 1<<12)
	u := UnionLength([]Window{a, b})
	if u < a.TotalActive() && u < b.TotalActive() {
		t.Errorf("fallback union %d below both members", u)
	}
}

func TestWindowString(t *testing.T) {
	s := Tail(8, 2, 3).String()
	if s != "{P=8 X=2 S=6 Z=3}" {
		t.Errorf("String = %q", s)
	}
}
