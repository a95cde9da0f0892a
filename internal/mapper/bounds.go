package mapper

// Greedy level-boundary assignment over a prefix dim-product table
// (DESIGN.md §9). Every level of an operand's chain absorbs as many loops,
// from where the level below stopped, as its mapper-visible capacity allows.
// Because operand-irrelevant loops do not grow the resident tile, this
// automatically normalizes reuse loops to the lowest possible level (the
// canonical placement discussed in DESIGN.md). A level's tile at boundary b
// is TileElems of row b of the nest's loops.PrefixTable over the spatial
// products, so each capacity check is O(1) and a whole assignment O(n).
//
// The bounder also carries its table and decisions from one nest to the
// next. The walk (permute) varies the OUTERMOST positions fastest, so
// consecutive orderings share an inner prefix of k loops: table rows 0..k
// stay, and so does every level boundary whose deciding row — the first row
// that no longer fit, or the row whose overflow failed the assignment —
// lies inside that prefix. The reuse is keyed by the nest's content, not by
// who calls, so any sequence of nests (walk, probes, annealing moves) gets
// exactly the boundaries a fresh assignment would.

import (
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/loops"
	"repro/internal/mapping"
	"repro/internal/workload"
)

// bounder assigns level boundaries for the nests of one (layer, arch,
// spatial unrolling) search and encodes their signatures. Not safe for
// concurrent use.
type bounder struct {
	st  loops.Strides // the layer's strides, normalized once
	ops [loops.NumOperands]opBounds

	pre  loops.PrefixTable
	nest loops.Nest // copy of the nest the table rows describe
	sig  []byte     // signature scratch
}

// opBounds is one operand's part of a bounder.
type opBounds struct {
	op    loops.Operand
	chain []*arch.Memory
	bits  int64 // precision
	reuse uint8 // bit d set: dimension d is a reuse dim

	// bounds holds one boundary per chain level. The first decided levels
	// below the top were decided for the bounder's nest; decide[lev] is the
	// highest table row level lev's decision read. failed marks that the
	// last decided level overflowed at its starting row.
	bounds  []int
	decide  []int
	decided int
	failed  bool
}

// reset scopes the bounder to a search, keeping its storage.
func (b *bounder) reset(l *workload.Layer, a *arch.Arch, spatial loops.Nest) {
	b.st = l.Strides.Normalized()
	for _, op := range loops.AllOperands {
		o := &b.ops[op]
		o.op, o.chain = op, a.ChainMems(op)
		o.bits = int64(l.Precision.Bits(op))
		o.reuse = 0
		for _, d := range loops.AllDims {
			if loops.IsReuseDim(op, d) {
				o.reuse |= 1 << d
			}
		}
		if n := len(o.chain); cap(o.bounds) < n {
			ints := make([]int, 2*n)
			o.bounds, o.decide = ints[:n:n], ints[n:]
		} else {
			o.bounds, o.decide = o.bounds[:n], o.decide[:n]
		}
		o.decided, o.failed = 0, false
	}
	sp := spatial.DimProduct()
	b.pre.Build(&sp, nil)
	b.nest = b.nest[:0]
}

// assign computes nest's level boundaries (bounds). It returns false when
// even the spatial tile overflows some level (the nest can never validate);
// the boundaries are then meaningless.
func (b *bounder) assign(nest loops.Nest) bool {
	k := 0
	for k < len(nest) && k < len(b.nest) && nest[k] == b.nest[k] {
		k++
	}
	b.pre.Extend(nest, k)
	b.nest = append(b.nest[:k], nest[k:]...)
	for i, op := range loops.AllOperands {
		o := &b.ops[op]
		if !b.assignOp(o, len(nest), k) {
			// The later operands were not assigned for this nest: forget
			// their decisions, which belong to an older one.
			for _, later := range b.ops[i+1:] {
				later.decided, later.failed = 0, false
			}
			return false
		}
	}
	return true
}

// bounds sets m's level boundaries to the last assigned nest's, aliasing
// the bounder's storage.
func (b *bounder) bounds(m *mapping.Mapping) {
	for op := range b.ops {
		m.Bound[op] = b.ops[op].bounds
	}
}

// assignOp runs the greedy scan for operand o of an n-loop nest whose
// innermost k loops equal the previous nest's.
func (b *bounder) assignOp(o *opBounds, n, k int) bool {
	bounds, decide := o.bounds, o.decide
	top := len(bounds) - 1
	kept := 0
	for kept < o.decided && decide[kept] <= k {
		kept++
	}
	if o.failed && kept == o.decided {
		return false
	}
	// The first level not kept scanned past row k for the previous nest
	// (its deciding row lies beyond the shared prefix) unless it failed at
	// its starting row: rows up to k still fit it, so its scan resumes at k.
	resume := kept < o.decided && !(o.failed && kept == o.decided-1)
	prev := 0
	if kept > 0 {
		prev = bounds[kept-1]
	}
	for lev := kept; lev < top; lev++ {
		var r int
		if lev == kept && resume {
			r = b.scan(o, lev, k, n)
		} else if b.tile(o, prev) <= o.chain[lev].MapperCapacityBits() {
			r = b.scan(o, lev, prev, n)
		} else {
			bounds[lev], decide[lev] = prev, prev
			o.decided, o.failed = lev+1, true
			return false // spatial tile alone does not fit
		}
		// Row r+1 overflowed; at r == n the scan read the whole table, so
		// the boundary only holds for this very nest (decide > any k).
		bounds[lev], decide[lev] = r, r+1
		prev = r
	}
	if top >= 0 {
		bounds[top] = n
	}
	o.decided, o.failed = max(top, 0), false
	return true
}

// scan returns the last boundary row from r on whose tile of operand o fits
// level lev, given that row r's does: it checks rows r+1, r+2, ... up to n
// in order and stops before the first overflow.
func (b *bounder) scan(o *opBounds, lev, r, n int) int {
	capBits := o.chain[lev].MapperCapacityBits()
	for ; r < n; r++ {
		// Row r+1 differs from row r only in loop r's dimension. A dimension
		// the operand's tile ignores (a reuse dim) leaves the tile, and so
		// the verdict, as it was.
		if o.reuse>>b.nest[r].Dim&1 == 0 && b.tile(o, r+1) > capBits {
			break
		}
	}
	return r
}

// tile returns the bits of operand o's tile at boundary row.
func (b *bounder) tile(o *opBounds, row int) int64 {
	return loops.TileElemsNormalized(o.op, b.pre.Row(row), b.st) * o.bits
}

// signature returns the model-equivalence signature of the nest just
// assigned (successfully): every operand's core.AppendOperandKey, read off
// the same table the boundaries came from. The slice is the bounder's
// storage, valid until the next signature call.
func (b *bounder) signature() []byte {
	b.sig = b.sig[:0]
	for op := range b.ops {
		o := &b.ops[op]
		b.sig = core.AppendOperandKey(b.sig, &b.pre, b.nest, o.op, o.bounds, o.chain)
	}
	return b.sig
}
