package loops

// Strides captures the convolution striding needed to size input tiles
// through the sliding window: IX = (OX-1)*SX + (FX-1)*DX + 1 and the
// analogous relation for rows.
type Strides struct {
	SX, SY int64 // output stride (default 1)
	DX, DY int64 // filter dilation (default 1)
}

// DefaultStrides returns unit stride and dilation.
func DefaultStrides() Strides { return Strides{SX: 1, SY: 1, DX: 1, DY: 1} }

// Normalized returns s with zero fields replaced by 1: the form
// TileElemsNormalized expects, so a caller sizing many tiles under one
// layer's strides normalizes them once.
func (s Strides) Normalized() Strides {
	if s.SX == 0 {
		s.SX = 1
	}
	if s.SY == 0 {
		s.SY = 1
	}
	if s.DX == 0 {
		s.DX = 1
	}
	if s.DY == 0 {
		s.DY = 1
	}
	return s
}

// InputExtent returns the input extent covered by an output extent out and a
// filter extent f under stride s and dilation d: (out-1)*s + (f-1)*d + 1.
// Extents of zero or less are treated as 1 (degenerate loops).
func InputExtent(out, f, s, d int64) int64 {
	if out < 1 {
		out = 1
	}
	if f < 1 {
		f = 1
	}
	if s < 1 {
		s = 1
	}
	if d < 1 {
		d = 1
	}
	return (out-1)*s + (f-1)*d + 1
}

// TileElems returns the number of data elements of operand op addressed by a
// tile whose per-dimension extents are given by dims (a value of 1 meaning
// the dimension is not present in the tile). For W and O this is the product
// of the operand's relevant dimensions; for I the OY/FY and OX/FX pairs
// combine through the sliding window using st.
func TileElems(op Operand, dims [NumDims]int64, st Strides) int64 {
	return TileElemsNormalized(op, &dims, st.Normalized())
}

// TileElemsNormalized is TileElems over strides already passed through
// Normalized, reading the extents in place: the form the mapper's greedy
// boundary scan calls once per prefix-table row (PrefixTable.Row).
func TileElemsNormalized(op Operand, dims *[NumDims]int64, st Strides) int64 {
	switch op {
	case W:
		return atLeast1(dims[K]) * atLeast1(dims[C]) * atLeast1(dims[FY]) * atLeast1(dims[FX])
	case O:
		return atLeast1(dims[B]) * atLeast1(dims[K]) * atLeast1(dims[OY]) * atLeast1(dims[OX])
	case I:
		iy := InputExtent(atLeast1(dims[OY]), atLeast1(dims[FY]), st.SY, st.DY)
		ix := InputExtent(atLeast1(dims[OX]), atLeast1(dims[FX]), st.SX, st.DX)
		return atLeast1(dims[B]) * atLeast1(dims[C]) * iy * ix
	}
	panic("loops: TileElems: unknown operand")
}

// atLeast1 clamps a tile extent: a value below 1 means the dimension is not
// present in the tile.
func atLeast1(v int64) int64 {
	if v < 1 {
		return 1
	}
	return v
}

// NestTileElems returns the number of elements of op addressed by the tile
// formed by all loops in the nest (temporal and/or spatial, as supplied by
// the caller), combining per-dimension products and then applying TileElems.
func NestTileElems(op Operand, n Nest, st Strides) int64 {
	return TileElems(op, n.DimProduct(), st)
}
