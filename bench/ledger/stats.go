package main

import (
	"errors"
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile's rank before
// the ledger reports it: a tail read off fewer samples is noise.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs:
// the value at rank ceil(p·n/100) of the sorted samples. It refuses when
// fewer than minBeyond samples lie beyond that rank.
func percentile(xs []float64, p int) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, errors.New("percentile of no samples")
	}
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile p%d out of range", p)
	}
	rank := (p*n + 99) / 100 // integer ceil: float p/100·n rounds 90% of 100 up to 91
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it (need %d)", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// highestPercentile returns the p-th percentile of xs, or the highest
// percentile below it that has minBeyond samples beyond it, and which
// percentile that was. With fewer than minBeyond+1 samples it returns the
// maximum (reported as p100).
func highestPercentile(xs []float64, p int) (float64, int) {
	n := len(xs)
	for q := p; q > 0; q-- {
		if n-(q*n+99)/100 >= minBeyond {
			v, _ := percentile(xs, q) // supported: checked just above
			return v, q
		}
	}
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m, 100
}

// classMedian is the median of a mix of op classes with equal shares: the
// mean over classes of each class's own nearest-rank median. A pooled
// median of k equal-share classes sits exactly on a class boundary and
// jumps between neighbouring classes run to run; this one does not.
func classMedian(classes [][]float64) (float64, error) {
	if len(classes) == 0 {
		return 0, errors.New("median of no classes")
	}
	sum := 0.0
	for i, c := range classes {
		v, err := percentile(c, 50)
		if err != nil {
			return 0, fmt.Errorf("class %d: %w", i, err)
		}
		sum += v
	}
	return sum / float64(len(classes)), nil
}

// median is the ordinary sample median (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so the
// ledger's spread agrees with any checker that uses it. Needs n >= 2.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, fmt.Errorf("quartiles of %d samples (need 2)", n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1) // Python clamps j to 1..n-1
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3), nil
}
