package loops

import "encoding/binary"

// Model-equivalence signature primitives.
//
// The uniform latency model consumes a temporal nest through two kinds of
// quantities only: per-level per-dimension size PRODUCTS (the Mem_DATA tile
// resolution, Mem_CC, the turnaround count Z, the psum traffic split and
// CC_spatial are all products over a level slice's dims) and the TOP REUSE
// RUN of each non-double-buffered interface level (Table I's keep-out
// scaling). Two nests that agree on both therefore score identically — they
// belong to the same model-equivalence class. The mapper's symmetry
// reduction keys classes by the byte encoding built from these primitives,
// and core's Step-1 op-cache keys its sub-results by the same encoding.

// AppendDimProducts appends the canonical encoding of the nest's non-trivial
// per-dimension size products to dst and returns the extended slice: for
// each dimension with product != 1, in declaration order, one dimension
// index byte followed by the uvarint product, closed by a 0xFF terminator.
// A dimension byte is < NumDims < 0x80, so the encoding is self-delimiting
// and injective: equal byte strings imply equal product vectors.
func (n Nest) AppendDimProducts(dst []byte) []byte {
	dims := n.DimProduct()
	return appendDims(dst, &dims)
}

// AppendDimQuotients appends the AppendDimProducts encoding of the loops
// between two boundaries lo <= hi of a PrefixTable — Row(hi) per dimension
// divided by Row(lo) — without revisiting the loops: a dimension with no
// loop in between has equal rows and encodes nothing, any other divides
// exactly.
func AppendDimQuotients(dst []byte, hi, lo *[NumDims]int64) []byte {
	for d := range hi {
		if h, l := hi[d], lo[d]; h != l {
			dst = appendDim(dst, d, int64(uint64(h)/uint64(l))) // positive rows
		}
	}
	return append(dst, 0xFF)
}

// appendDims is the dim-product byte layout: every non-unit dimension as
// appendDim, then the 0xFF terminator.
func appendDims(dst []byte, dims *[NumDims]int64) []byte {
	for d, v := range dims {
		dst = appendDim(dst, d, v)
	}
	return append(dst, 0xFF)
}

// appendDim appends one dimension's product v as its index byte and uvarint
// value, or nothing when v is 1.
func appendDim(dst []byte, d int, v int64) []byte {
	if v == 1 {
		return dst
	}
	return AppendUvarint(append(dst, byte(d)), uint64(v))
}

// AppendUvarint appends the uvarint encoding of v to dst and returns the
// extended slice.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// DistinctOrderings returns the number of distinct sequences the block
// multiset can be arranged into: n! / prod(m_i!) over the multiplicities
// m_i of the distinct blocks. The mapper uses it to account skipped
// enumeration remainders exactly without walking them. The count is built
// incrementally — after item i it equals the multinomial of the first i+1
// blocks — so every intermediate value is itself an exact integer and the
// running product never exceeds the final result times n (the engine's
// worst case, 7 dims x 2 splits = 14 blocks, tops out at 14! ~ 8.7e10,
// far inside int64).
func DistinctOrderings(blocks []Loop) int64 {
	total := int64(1)
	for i := range blocks {
		dup := int64(0)
		for j := 0; j <= i; j++ {
			if blocks[j] == blocks[i] {
				dup++
			}
		}
		total = total * int64(i+1) / dup
	}
	return total
}
