package loops

// PrefixTable is the prefix dim-product table of one nest: row b holds, per
// dimension, a base vector times the sizes of that dimension's loops among
// the innermost b loops of the nest. With the spatial unrolling's products
// as the base, row b is exactly the tile extent vector Mem_DATA resolves for
// a memory level whose boundary sits at b, and the loops between two
// boundaries lo <= hi multiply per dimension to Row(hi)[d] / Row(lo)[d]
// (exact: row hi is row lo times those loops). One table therefore answers
// every level-content question the latency model asks of a nest, in O(1)
// per row, after an O(n) build.
//
// Loop sizes and the base must be positive. The zero value is an empty
// table. The rows of a mapper nest — at most two split parts per dimension,
// so at most 2*NumDims+1 rows — live in the table itself, and building them
// allocates nothing; longer nests (annealing moves can make them) keep their
// extra rows in storage grown once and reused.
type PrefixTable struct {
	fixed [2*NumDims + 1][NumDims]int64
	more  [][NumDims]int64 // rows past the fixed ones
}

// Build fills the table for nest n over base: row 0 is base, and row b+1 is
// row b with n[b]'s dimension multiplied by n[b]'s size.
func (t *PrefixTable) Build(base *[NumDims]int64, n Nest) {
	t.fixed[0] = *base
	t.Extend(n, 0)
}

// Extend recomputes rows from+1..len(n) for nest n, keeping rows 0..from:
// the caller guarantees the table was last built over the same base for a
// nest whose innermost `from` loops equal n[:from] (rows depend only on the
// loops below them).
func (t *PrefixTable) Extend(n Nest, from int) {
	if extra := len(n) + 1 - len(t.fixed); extra > len(t.more) {
		t.more = append(t.more, make([][NumDims]int64, extra-len(t.more))...)
	}
	row := *t.Row(from)
	for b, l := range n[from:] {
		row[l.Dim] *= l.Size
		*t.Row(from + b + 1) = row
	}
}

// Row returns row b: the base times the dim products of the innermost b
// loops. The array is the table's storage, valid until the next Build or
// Extend.
func (t *PrefixTable) Row(b int) *[NumDims]int64 {
	if b < len(t.fixed) {
		return &t.fixed[b]
	}
	return &t.more[b-len(t.fixed)]
}
