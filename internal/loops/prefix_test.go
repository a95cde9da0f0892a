package loops

import (
	"bytes"
	"math/rand"
	"testing"
)

// randomNest draws n loops over random dimensions with sizes 1..12.
func randomNest(rng *rand.Rand, n int) Nest {
	out := make(Nest, n)
	for i := range out {
		out[i] = Loop{Dim: Dim(rng.Intn(NumDims)), Size: int64(rng.Intn(12) + 1)}
	}
	return out
}

// TestPrefixTableRows checks every row against the direct definition — the
// base times the dim products of the innermost b loops — for fresh builds
// and for Extend from every shared prefix of a previous nest, including
// nests longer than the preallocated 2*NumDims+1 rows.
func TestPrefixTableRows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab PrefixTable
	var prev Nest
	base := [NumDims]int64{2, 1, 8, 1, 3, 1, 1}
	tab.Build(&base, nil)
	for iter := 0; iter < 500; iter++ {
		nest := randomNest(rng, rng.Intn(3*NumDims))
		k := 0
		if iter%2 == 1 && len(prev) > 0 {
			// Keep a random inner prefix of the previous nest.
			k = rng.Intn(len(prev) + 1)
			nest = append(append(Nest(nil), prev[:k]...), nest...)
		}
		tab.Extend(nest, k)
		for b := 0; b <= len(nest); b++ {
			want := nest[:b].DimProduct()
			for d := range want {
				want[d] *= base[d]
			}
			if *tab.Row(b) != want {
				t.Fatalf("iter %d: row %d of %s = %v, want %v", iter, b, nest, *tab.Row(b), want)
			}
		}
		prev = nest
	}
}

// TestAppendDimQuotientsMatchesProducts: the quotient of two table rows
// encodes exactly as the loops between them do.
func TestAppendDimQuotientsMatchesProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var tab PrefixTable
	for iter := 0; iter < 200; iter++ {
		nest := randomNest(rng, rng.Intn(2*NumDims+1))
		base := [NumDims]int64{}
		for d := range base {
			base[d] = int64(rng.Intn(16) + 1)
		}
		tab.Build(&base, nest)
		for lo := 0; lo <= len(nest); lo++ {
			for hi := lo; hi <= len(nest); hi++ {
				got := AppendDimQuotients(nil, tab.Row(hi), tab.Row(lo))
				want := nest[lo:hi].AppendDimProducts(nil)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s[%d:%d]: quotients %x, products %x", nest, lo, hi, got, want)
				}
			}
		}
	}
}
