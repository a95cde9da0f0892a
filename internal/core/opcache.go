package core

import (
	"bytes"

	"repro/internal/arch"
	"repro/internal/loops"
	"repro/internal/mapping"
	"repro/internal/workload"
)

// Step-1 sub-result cache: an operand's DTL quantities at a memory level —
// Mem_DATA, Mem_CC, Z, the Table-I top reuse run and the psum traffic split
// — depend only on that operand's per-level loop content, NOT on how the
// loops are ordered within a level (every quantity is a product over the
// level's dims, except the top reuse run, which the cache key carries
// explicitly). Sibling nests in a mapping search permute loops heavily while
// reproducing the same per-level content, so a search-lived cache keyed by
// the canonical per-level encoding skips the Mem_DATA tile resolution (the
// sliding-window arithmetic of TileElems) and the traffic split for the
// vast majority of candidates.
//
// The cache is scoped to one (layer, arch, spatial unrolling) triple —
// exactly one mapping search — and resets itself when any of the three
// changes. Like Evaluator.chainMems it keys on pointer identity for the
// layer and arch: holding the pointer keeps the object alive, so identity
// is sound unless a caller mutates a Layer/Arch mid-search (unsupported
// throughout this repository).
//
// Cached values are exact integers, so a cache hit is bit-identical to a
// recomputation by construction (asserted in TestOpCacheBitIdentical).

// levelQuant is one interface level's cached Step-1 quantities.
type levelQuant struct {
	memData int64 // Mem_DATA: resident elements at the level
	memCC   int64 // Mem_CC: turnaround cycles
	z       int64 // Z: turnarounds over the whole layer
	topRun  int64 // effective Table-I top reuse run (1 when double-buffered)
	traffic mapping.OutputTraffic
	bad     bool // topRun does not divide memCC (model error)
}

// opCache holds the per-operand memo tables of one Evaluator. Not safe for
// concurrent use, like the Evaluator that owns it.
type opCache struct {
	layer   *workload.Layer
	arch    *arch.Arch
	spatial [loops.NumDims]int64

	m      [loops.NumOperands]map[string][]levelQuant
	pre    loops.PrefixTable // temporal nest of the last keyed mapping, over the spatial products
	keyBuf []byte
	qBuf   []levelQuant // scratch for building entries before interning

	// lastKey/lastQ short-circuit the map probe when consecutive
	// evaluations repeat an operand's per-level content byte for byte —
	// the common case for sibling nests in a search batch, which permute
	// one operand's levels while the others' content stays fixed (the
	// Step-1 "shared prefix" ScoreBatch exploits).
	lastKey [loops.NumOperands][]byte
	lastQ   [loops.NumOperands][]levelQuant
}

// opCacheMaxEntries bounds each operand's table; a full table is dropped
// whole (searches revisit recent shapes, so coarse eviction is fine).
const opCacheMaxEntries = 1 << 13

// ensure re-scopes the cache to problem p, dropping all entries when the
// layer, arch or spatial unrolling changed since the last evaluation, and
// builds the prefix table of p's temporal nest the operand keys read.
func (c *opCache) ensure(p *Problem) {
	sp := p.Mapping.Spatial.DimProduct()
	if c.layer != p.Layer || c.arch != p.Arch || c.spatial != sp {
		c.layer, c.arch, c.spatial = p.Layer, p.Arch, sp
		for op := range c.m {
			c.m[op] = nil
			c.lastKey[op] = c.lastKey[op][:0]
			c.lastQ[op] = nil
		}
	}
	c.pre.Build(&c.spatial, p.Mapping.Temporal)
}

// quants returns the cached Step-1 quantities of operand op for the mapping
// ensure last saw, computing and interning them on a miss. The returned
// slice has one entry per interface level (len(chain)-1) and is owned by
// the cache: callers must treat it as read-only, and it is only valid until
// the next quants call (a table drop may release it).
func (c *opCache) quants(p *Problem, op loops.Operand, chain []*arch.Memory) []levelQuant {
	m := p.Mapping
	levels := len(chain)

	// Canonical key: the operand's Step-1 content key (signature.go) — the
	// same encoding the mapper's model-equivalence signature concatenates
	// across operands.
	key := AppendOperandKey(c.keyBuf[:0], &c.pre, m.Temporal, op, m.Bound[op], chain)
	c.keyBuf = key

	if q := c.lastQ[op]; q != nil && bytes.Equal(key, c.lastKey[op]) {
		return q
	}
	if q, ok := c.m[op][string(key)]; ok {
		c.lastKey[op] = append(c.lastKey[op][:0], key...)
		c.lastQ[op] = q
		return q
	}

	st := p.Layer.Strides
	if cap(c.qBuf) < levels-1 {
		c.qBuf = make([]levelQuant, levels-1)
	}
	q := c.qBuf[:levels-1]
	for l := 0; l+1 < levels; l++ {
		lq := &q[l]
		lq.memData = m.MemData(op, l, st)
		lq.memCC = m.MemCC(op, l)
		lq.z = m.Periods(op, l)
		lq.topRun = 1
		if !chain[l].DoubleBuffered {
			lq.topRun = m.TopReuseRun(op, l)
		}
		lq.bad = lq.topRun == 0 || lq.memCC%lq.topRun != 0
		lq.traffic = mapping.OutputTraffic{}
		if op == loops.O {
			lq.traffic = m.OutputTrafficAt(l)
		}
	}

	if c.m[op] == nil {
		c.m[op] = make(map[string][]levelQuant)
	} else if len(c.m[op]) >= opCacheMaxEntries {
		c.m[op] = make(map[string][]levelQuant)
	}
	stored := make([]levelQuant, len(q))
	copy(stored, q)
	c.m[op][string(key)] = stored
	c.lastKey[op] = append(c.lastKey[op][:0], key...)
	c.lastQ[op] = stored
	return stored
}
