package core

import (
	"repro/internal/arch"
	"repro/internal/loops"
)

// AppendOperandKey appends operand op's canonical Step-1 content key to dst:
// per memory level (ALL levels, so the above-products of every interface
// are pinned), innermost first, the dim products of the level's loops
// nest[lo:hi], then — for an interface level (every level but the chain's
// last) that is not double-buffered — the level's effective top reuse run.
// The products are read from pre, the prefix dim-product table of nest (over
// any positive base: a level's products are the quotient of its boundary
// rows), and bounds, op's level boundaries in nest — one per chain level, as
// in mapping.Mapping.Bound.
//
// Every Step-1 quantity of the operand — Mem_DATA, Mem_CC, Z, the Table-I
// keep-out scaling and the psum traffic split — is a pure function of this
// key. It is the op-cache's lookup key (opcache.go) and one third of the
// mapper's model-equivalence signature; this is the only encoder of its
// bytes, so the reduction and the op-cache cannot drift apart.
func AppendOperandKey(dst []byte, pre *loops.PrefixTable, nest loops.Nest, op loops.Operand, bounds []int, chain []*arch.Memory) []byte {
	lo := 0
	for l := range chain {
		hi := bounds[l]
		dst = loops.AppendDimQuotients(dst, pre.Row(hi), pre.Row(lo))
		if l < len(chain)-1 && !chain[l].DoubleBuffered {
			dst = loops.AppendUvarint(dst, uint64(nest[lo:hi].TopReuseRun(op)))
		}
		lo = hi
	}
	return dst
}

// AppendSignature appends the mapping's model-equivalence signature to dst
// and returns the extended slice: the concatenation of every operand's
// Step-1 content key. Two mappings of the same (layer, arch, spatial
// unrolling) with equal signatures produce bit-identical results under
// Evaluate, EvaluateBWUnaware, ScoreLatency, LowerBound and the energy
// model: each consumes the temporal nest exclusively through per-level
// per-operand dim products, top reuse runs and CC_spatial (the all-level
// product, which the per-level products determine), and mapping.Validate's
// coverage and capacity checks read the same products. The mapper's
// symmetry reduction (DESIGN.md §9) relies on this exactness.
//
// The mapping's level boundaries must already be assigned. Signatures are
// only comparable between mappings sharing layer, arch and spatial nest —
// the chain structure fixes the encoding's field boundaries, so within one
// such family equal bytes imply equal quantity tuples.
func (ev *Evaluator) AppendSignature(dst []byte, p *Problem) []byte {
	m := p.Mapping
	sp := m.Spatial.DimProduct()
	ev.opc.pre.Build(&sp, m.Temporal)
	for _, op := range loops.AllOperands {
		dst = AppendOperandKey(dst, &ev.opc.pre, m.Temporal, op, m.Bound[op], ev.chainMems(p.Arch, op))
	}
	return dst
}
