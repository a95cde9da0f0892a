// Package periodic models the finite periodic operation pattern of a unit
// memory's data-transfer link (paper Fig. 2(a), Step 1): a window function
// with four parameters — period (Mem_CC), active length within one period
// (X), active start offset within one period (S), and number of periods (Z).
// The total allowed memory-updating window MUW_u of a link is the total
// active length X*Z; Step 2 combines links sharing a physical port by taking
// the UNION of their window sets, which this package computes exactly via
// interval merging over the windows' common hyperperiod.
package periodic

import (
	"fmt"
)

// Window is a finite periodic activity pattern: Count periods of length
// Period, each with an active interval [Start, Start+Active) that must not
// wrap past the period boundary.
type Window struct {
	Period int64 // cycles per period (Mem_CC); > 0
	Active int64 // active cycles per period (X); 0 <= Active <= Period
	Start  int64 // active start offset within the period (S)
	Count  int64 // number of periods (Z); >= 0
}

// Full returns a window that is active for its entire span: count periods
// of length period, fully active. This models double-buffered memories and
// single-buffered memories with a relevant loop on top (paper Fig. 3(a-c)),
// whose updates may overlap computation at any time.
func Full(period, count int64) Window {
	return Window{Period: period, Active: period, Start: 0, Count: count}
}

// Tail returns a window active only for the LAST active cycles of each
// period: the "memory update keep-out zone" pattern of single-buffered
// memories with an irrelevant loop on top (paper Fig. 3(d-f)) — the held
// data is being reused and may only be replaced at the end of the period.
func Tail(period, active, count int64) Window {
	if active > period {
		active = period
	}
	return Window{Period: period, Active: active, Start: period - active, Count: count}
}

// Validate reports structural errors.
func (w Window) Validate() error {
	if w.Period <= 0 {
		return fmt.Errorf("periodic: non-positive period %d", w.Period)
	}
	if w.Active < 0 || w.Active > w.Period {
		return fmt.Errorf("periodic: active %d outside [0, period %d]", w.Active, w.Period)
	}
	if w.Start < 0 || w.Start+w.Active > w.Period {
		return fmt.Errorf("periodic: active interval [%d,%d) exceeds period %d", w.Start, w.Start+w.Active, w.Period)
	}
	if w.Count < 0 {
		return fmt.Errorf("periodic: negative count %d", w.Count)
	}
	return nil
}

// Span is the total time covered by the window: Period * Count.
func (w Window) Span() int64 { return w.Period * w.Count }

// TotalActive is the total active length across all periods: Active * Count.
// For a DTL this is MUW_u = X_REQ * Z.
func (w Window) TotalActive() int64 { return w.Active * w.Count }

// IsFull reports whether the window is active over its whole span.
func (w Window) IsFull() bool { return w.Active == w.Period }

// ActiveAt reports whether absolute cycle t lies in an active interval.
func (w Window) ActiveAt(t int64) bool {
	if t < 0 || t >= w.Span() {
		return false
	}
	ph := t % w.Period
	return ph >= w.Start && ph < w.Start+w.Active
}

// String renders the window compactly.
func (w Window) String() string {
	return fmt.Sprintf("{P=%d X=%d S=%d Z=%d}", w.Period, w.Active, w.Start, w.Count)
}

// maxUnionIntervals bounds the exact interval expansion; beyond it
// UnionLength falls back to a conservative (stall-overestimating) bound.
// See DESIGN.md ("no silent caps"): callers can detect the fallback via
// UnionExact.
const maxUnionIntervals = 1 << 21

// gcd of two non-negative ints.
func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// hyperperiod returns the least common multiple of the windows' periods,
// saturating at limit (returns limit+1 when exceeded).
func hyperperiod(ws []Window, limit int64) int64 {
	h := int64(1)
	for _, w := range ws {
		g := gcd(h, w.Period)
		h = h / g * w.Period
		if h > limit || h <= 0 {
			return limit + 1
		}
	}
	return h
}

// UnionLength returns the total length of the union of the windows' active
// sets, measured over [0, span) where span is the maximum window span. This
// is MUW_comb of the paper's Step 2. Windows must be valid.
func UnionLength(ws []Window) int64 {
	n, _ := unionLength(ws, nil)
	return n
}

// Union returns UnionLength and UnionExact in a single pass — the form the
// latency model's hot path uses, since it always needs both.
func Union(ws []Window) (length int64, exact bool) {
	return unionLength(ws, nil)
}

// UnionScratch carries the buffers of the union computation so that
// repeated UnionWith calls (one per physical port per model evaluation)
// reuse them instead of allocating.
type UnionScratch struct {
	live []Window
	runs []mergeRun
}

// UnionWith is Union with caller-provided scratch (nil behaves like Union).
func UnionWith(ws []Window, sc *UnionScratch) (length int64, exact bool) {
	return unionLength(ws, sc)
}

// UnionExact reports whether UnionLength would compute the exact union for
// these windows (as opposed to the conservative fallback bound).
func UnionExact(ws []Window) bool {
	_, exact := unionLength(ws, nil)
	return exact
}

func unionLength(ws []Window, sc *UnionScratch) (int64, bool) {
	if sc == nil {
		sc = &UnionScratch{}
	}
	// Drop empty windows and fold every window into a live window that
	// contains it: windows with the same (Period, Start, Active) are
	// prefixes of one another, so the one with the largest Count is their
	// union. On a shared read-write port this is the common case (the
	// O-operand drain and the psum read-back repeat one pattern over
	// different counts), and folding turns it into the one-window path
	// instead of a period-by-period expansion of the whole span.
	live := sc.live[:0]
	span := int64(0)
	for _, w := range ws {
		if w.Span() > span {
			span = w.Span()
		}
		if w.TotalActive() > 0 {
			live = fold(live, w)
		}
	}
	sc.live = live
	if len(live) == 0 || span == 0 {
		return 0, true
	}
	// Fast path: any full window covering the whole span covers everything.
	for _, w := range live {
		if w.IsFull() && w.Span() == span {
			return span, true
		}
	}
	if len(live) == 1 {
		return live[0].TotalActive(), true
	}

	// Folding leaves the set of periods, and so the hyperperiod, unchanged.
	// The fallback predicates below are summed over the unfolded windows,
	// so every input that took the fallback before folding still takes it.
	h := hyperperiod(live, span)
	if h > span {
		h = span
	}
	// Estimate the interval count; fall back if pathological.
	var count, fullCount int64
	allFullSpan := true
	for _, w := range ws {
		if w.TotalActive() == 0 {
			continue
		}
		count += h/w.Period + 1
		fullCount += w.Count + 1
		if w.Span() != span {
			allFullSpan = false
		}
	}
	if count > maxUnionIntervals {
		// Conservative fallback: the union is at least as long as the
		// longest member (underestimating the union overestimates the
		// combined stall — safe for a latency bound).
		return longest(live), false
	}

	runs := sc.runs[:0]
	for _, w := range live {
		limit := h
		if wspan := w.Span(); wspan < limit {
			limit = wspan
		}
		runs = append(runs, mergeRun{period: w.Period, start: w.Start, active: w.Active, limit: limit})
	}
	sc.runs = runs
	perH := mergedLength(runs)

	if h >= span {
		return perH, true
	}
	// The union pattern repeats every h cycles for windows spanning the
	// full range; windows with shorter spans only contribute to their own
	// prefix. When all spans equal the max span the repetition is exact.
	if allFullSpan {
		return perH * (span / h), true
	}
	// Mixed spans: compute exactly over the whole range if affordable.
	if fullCount > maxUnionIntervals {
		return longest(live), false
	}
	runs = runs[:0]
	for _, w := range live {
		runs = append(runs, mergeRun{period: w.Period, start: w.Start, active: w.Active, limit: w.Span()})
	}
	sc.runs = runs
	return mergedLength(runs), true
}

// fold adds w to the live set, merging it with a member of the same
// (Period, Start, Active) pattern by keeping the larger Count.
func fold(live []Window, w Window) []Window {
	for i := range live {
		l := &live[i]
		if l.Period == w.Period && l.Start == w.Start && l.Active == w.Active {
			if w.Count > l.Count {
				l.Count = w.Count
			}
			return live
		}
	}
	return append(live, w)
}

// longest is the fallback bound: the largest member's total active length.
func longest(ws []Window) int64 {
	best := int64(0)
	for _, w := range ws {
		if ta := w.TotalActive(); ta > best {
			best = ta
		}
	}
	return best
}

// mergeRun is one window's cursor in the k-way interval merge: it yields the
// window's active intervals [base+start, base+start+active) for base = 0,
// period, 2·period, … clipped to limit, in increasing order. Because every
// window emits its intervals already sorted, the union needs no global sort —
// a k-way merge over the cursors visits the same intervals in the same
// left-to-right order the old sort-then-sweep produced, and the measure of a
// union is a set property, so the result is identical.
type mergeRun struct {
	period, start, active int64
	base                  int64 // next interval base offset
	limit                 int64 // clip bound (exclusive)
}

// mergedLength sweeps the k cursors left to right and returns the total
// length of the union of their intervals. k is the number of windows sharing
// a physical port — a handful — so the linear min-scan per step beats any
// heap bookkeeping.
func mergedLength(runs []mergeRun) int64 {
	var total int64
	curLo, curHi := int64(0), int64(-1) // curHi < curLo ⇔ no open interval
	for {
		best := -1
		var bestLo int64
		for i := range runs {
			r := &runs[i]
			lo := r.base + r.start
			if lo >= r.limit || r.active == 0 {
				continue
			}
			if best < 0 || lo < bestLo {
				best, bestLo = i, lo
			}
		}
		if best < 0 {
			break
		}
		r := &runs[best]
		lo := r.base + r.start
		hi := lo + r.active
		if hi > r.limit {
			hi = r.limit
		}
		r.base += r.period
		switch {
		case curHi < curLo:
			curLo, curHi = lo, hi
		case lo > curHi:
			total += curHi - curLo
			curLo, curHi = lo, hi
		case hi > curHi:
			curHi = hi
		}
	}
	if curHi >= curLo {
		total += curHi - curLo
	}
	return total
}

// IntersectLength returns the total length of the intersection of the two
// windows' active sets over the overlap of their spans. The model's Step 2
// uses unions; intersections support analyses of guaranteed-conflict time.
func IntersectLength(a, b Window) int64 {
	if err := a.Validate(); err != nil {
		panic(err)
	}
	if err := b.Validate(); err != nil {
		panic(err)
	}
	span := a.Span()
	if s := b.Span(); s < span {
		span = s
	}
	if span == 0 || a.Active == 0 || b.Active == 0 {
		return 0
	}
	// Both patterns repeat every h = lcm(Pa, Pb) cycles within the common
	// span: count whole hyperperiods, then the remainder [⌊span/h⌋·h, span),
	// which is the same as the prefix [0, span mod h).
	h := a.Period / gcd(a.Period, b.Period) * b.Period
	if h >= span {
		return intersectPrefix(a, b, span)
	}
	return intersectPrefix(a, b, h)*(span/h) + intersectPrefix(a, b, span%h)
}

// intersectPrefix returns |active(a) ∩ active(b) ∩ [0, limit)|, walking a's
// intervals and clipping each against b.
func intersectPrefix(a, b Window, limit int64) int64 {
	var total int64
	count := int64(0)
	for base := int64(0); base < limit; base += a.Period {
		lo, hi := base+a.Start, base+a.Start+a.Active
		if lo >= limit {
			break
		}
		if hi > limit {
			hi = limit
		}
		total += overlapWithPeriodic(lo, hi, b)
		count++
		if count > maxUnionIntervals {
			break
		}
	}
	return total
}

// overlapWithPeriodic returns |[lo,hi) ∩ active(b)| assuming hi-lo fits in
// a few of b's periods.
func overlapWithPeriodic(lo, hi int64, b Window) int64 {
	var total int64
	base := lo - lo%b.Period
	for ; base < hi; base += b.Period {
		blo, bhi := base+b.Start, base+b.Start+b.Active
		s, e := blo, bhi
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
		}
	}
	return total
}
