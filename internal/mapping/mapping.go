// Package mapping represents how a DNN layer is spatially and temporally
// mapped onto an accelerator (paper Section II-A-3), and derives the
// per-level, per-operand quantities the latency model consumes: Mem_DATA,
// Mem_CC, the top-loop reuse run of Table I, and the output partial-sum
// traffic split.
//
// A Mapping has a single shared temporal loop stack (innermost first).
// Every operand partitions that same stack into its own memory levels via
// the Bound slices: Bound[op][l] is the number of temporal loops held at
// levels <= l of operand op's memory chain, so the loops of level l are
// Temporal[Bound[op][l-1]:Bound[op][l]]. The last boundary of each operand
// must equal len(Temporal): the outermost memory holds the whole loop nest.
package mapping

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/loops"
	"repro/internal/workload"
)

// Mapping is a complete spatial + temporal mapping of one layer.
type Mapping struct {
	// Spatial is the loop unrolling across the MAC array. Order carries
	// no timing meaning; the product must not exceed the array size.
	Spatial loops.Nest

	// Temporal is the shared temporal loop stack, INNERMOST FIRST.
	Temporal loops.Nest

	// Bound[op] holds one non-decreasing boundary per memory level of
	// operand op's chain; see the package comment.
	Bound [loops.NumOperands][]int
}

// Clone returns a deep copy of the mapping.
func (m *Mapping) Clone() *Mapping {
	out := &Mapping{Spatial: m.Spatial.Clone(), Temporal: m.Temporal.Clone()}
	for op := range m.Bound {
		out.Bound[op] = append([]int(nil), m.Bound[op]...)
	}
	return out
}

// Levels returns the number of memory levels operand op's partition has.
func (m *Mapping) Levels(op loops.Operand) int { return len(m.Bound[op]) }

// LevelNest returns the temporal loops held at level l of operand op
// (innermost first). Level 0 is the register level.
func (m *Mapping) LevelNest(op loops.Operand, l int) loops.Nest {
	lo := 0
	if l > 0 {
		lo = m.Bound[op][l-1]
	}
	return m.Temporal[lo:m.Bound[op][l]]
}

// BelowNest returns all temporal loops at levels <= l of operand op.
func (m *Mapping) BelowNest(op loops.Operand, l int) loops.Nest {
	return m.Temporal[:m.Bound[op][l]]
}

// AboveNest returns all temporal loops strictly above level l of operand op.
func (m *Mapping) AboveNest(op loops.Operand, l int) loops.Nest {
	return m.Temporal[m.Bound[op][l]:]
}

// CCSpatial is the computation-phase cycle count with a fully temporally
// mapped view: the product of all temporal loop iterations (paper Fig. 1(b)
// scenario 2 — one cycle per MAC-array pass).
func (m *Mapping) CCSpatial() int64 { return m.Temporal.Product() }

// MemData returns Mem_DATA: the number of elements of operand op resident
// at memory level l — the product of the operand's relevant loops, temporal
// and spatial, at the current and lower levels (paper Fig. 2(a)). The
// sliding-window coupling of the input's partially relevant loops is
// resolved exactly via the layer strides.
func (m *Mapping) MemData(op loops.Operand, l int, st loops.Strides) int64 {
	dims := m.BelowNest(op, l).DimProduct()
	sp := m.Spatial.DimProduct()
	for i := range dims {
		dims[i] *= sp[i]
	}
	return loops.TileElems(op, dims, st)
}

// MemCC returns Mem_CC: the turnaround cycle count of operand op's data at
// level l — the product of ALL temporal loop sizes at the current and lower
// levels (paper Fig. 2(a)).
func (m *Mapping) MemCC(op loops.Operand, l int) int64 {
	return m.BelowNest(op, l).Product()
}

// Periods returns Z: how many turnarounds of operand op's level-l tile the
// whole layer executes — the product of all temporal loops above level l.
func (m *Mapping) Periods(op loops.Operand, l int) int64 {
	return m.AboveNest(op, l).Product()
}

// TopReuseRun returns the Table-I "top ir loop size" factor for operand op
// at level l: the product of the contiguous run of op-irrelevant loops at
// the top of the level's loop list. 1 when the top loop is relevant (or the
// level holds no loops).
func (m *Mapping) TopReuseRun(op loops.Operand, l int) int64 {
	return m.LevelNest(op, l).TopReuseRun(op)
}

// OutputTraffic describes the partial-sum movement of the output operand
// across the interface above level l (paper Case 1: psums transferred
// between O-Reg and GB).
type OutputTraffic struct {
	// WriteUps is how many level-l tiles are written up across the
	// interface over the whole layer: one per turnaround.
	WriteUps int64
	// ReadBacks is how many of those tiles must later be read back for
	// further accumulation: every turnaround except each distinct tile's
	// first visit. Zero when all reduction loops sit at or below level l
	// (fully output-stationary at this level).
	ReadBacks int64
	// FinalFraction is the fraction of write-ups that carry final (fully
	// reduced) outputs rather than partial sums.
	FinalFraction float64
}

// OutputTrafficAt computes the output traffic across the interface between
// level l and level l+1 of the output operand's chain.
func (m *Mapping) OutputTrafficAt(l int) OutputTraffic {
	z := m.Periods(loops.O, l)
	distinct := m.AboveNest(loops.O, l).ProductOf(func(d loops.Dim) bool {
		return !loops.IsReuseDim(loops.O, d)
	})
	rb := z - distinct
	if rb < 0 {
		rb = 0
	}
	ff := 0.0
	if z > 0 {
		ff = float64(distinct) / float64(z)
	}
	return OutputTraffic{WriteUps: z, ReadBacks: rb, FinalFraction: ff}
}

// SpatialUtilization is the fraction of the MAC array the spatial unrolling
// occupies: spatial product / array size.
func (m *Mapping) SpatialUtilization(a *arch.Arch) float64 {
	return float64(m.Spatial.Product()) / float64(a.MACs)
}

// Validate checks the mapping against a layer and an architecture:
// boundary shape, loop coverage of the layer dimensions, array occupancy
// and per-memory capacity (using the mapper-visible capacity of Table I).
func (m *Mapping) Validate(l *workload.Layer, a *arch.Arch) error {
	if err := m.Spatial.Validate(); err != nil {
		return err
	}
	if err := m.Temporal.Validate(); err != nil {
		return err
	}
	if sp := m.Spatial.Product(); sp > a.MACs {
		return fmt.Errorf("mapping: spatial product %d exceeds MAC array size %d", sp, a.MACs)
	}
	for _, op := range loops.AllOperands {
		b := m.Bound[op]
		if len(b) != a.Levels(op) {
			return fmt.Errorf("mapping: operand %s has %d boundaries, arch chain has %d levels", op, len(b), a.Levels(op))
		}
		prev := 0
		for i, v := range b {
			if v < prev || v > len(m.Temporal) {
				return fmt.Errorf("mapping: operand %s boundary %d = %d invalid (prev %d, stack %d)", op, i, v, prev, len(m.Temporal))
			}
			prev = v
		}
		if b[len(b)-1] != len(m.Temporal) {
			return fmt.Errorf("mapping: operand %s outermost boundary %d != temporal stack size %d", op, b[len(b)-1], len(m.Temporal))
		}
	}

	// Coverage: spatial*temporal per dimension must cover the layer dims;
	// padding (overshoot) is allowed — it shows up as spatial stall.
	tp := m.Temporal.DimProduct()
	sp := m.Spatial.DimProduct()
	for _, d := range loops.AllDims {
		if tp[d]*sp[d] < l.Dim(d) {
			return fmt.Errorf("mapping: dimension %s covered %d < layer extent %d", d, tp[d]*sp[d], l.Dim(d))
		}
		// Padding beyond the minimal ceil coverage is allowed (mappers pad
		// awkward extents to factorable ones; the waste is counted as
		// spatial stall), but never to twice the minimum.
		if minTp := loops.CeilDiv(l.Dim(d), sp[d]); tp[d] >= 2*minTp {
			return fmt.Errorf("mapping: dimension %s over-covered: temporal %d >= 2x minimal %d for extent %d with spatial %d", d, tp[d], minTp, l.Dim(d), sp[d])
		}
	}

	// Capacity: sum the resident footprints of all operands sharing each
	// physical module. The TOP level of each operand's chain is exempt —
	// layer data streams into it from off-chip, so it holds working tiles
	// rather than whole operands (the paper's 1MB GB runs layers whose
	// footprint exceeds it). Modules are checked in the order of their
	// first non-top chain level (operands in AllOperands order, levels
	// innermost first), so the reported overflow is always the same one.
	for _, op := range loops.AllOperands {
		for lev, name := range a.Chain[op] {
			if lev == len(a.Chain[op])-1 || m.seenBelow(a, op, lev) {
				continue
			}
			mem := a.MemoryByName(name)
			if mem == nil {
				return fmt.Errorf("mapping: chain references unknown memory %q", name)
			}
			if bits := m.footprint(l, a, name); bits > mem.MapperCapacityBits() {
				return fmt.Errorf("mapping: memory %q needs %d bits > mapper-visible capacity %d", name, bits, mem.MapperCapacityBits())
			}
		}
	}
	return nil
}

// seenBelow reports whether the module at non-top level lev of op's chain
// also holds an earlier non-top level in Validate's visiting order.
func (m *Mapping) seenBelow(a *arch.Arch, op loops.Operand, lev int) bool {
	name := a.Chain[op][lev]
	for _, o := range loops.AllOperands {
		chain := a.Chain[o]
		for i, n := range chain[:len(chain)-1] {
			if o == op && i == lev {
				return false
			}
			if n == name {
				return true
			}
		}
	}
	return false
}

// footprint sums the resident bits of every operand's non-top levels held
// in the named module.
func (m *Mapping) footprint(l *workload.Layer, a *arch.Arch, name string) int64 {
	var bits int64
	for _, op := range loops.AllOperands {
		chain := a.Chain[op]
		for lev, n := range chain[:len(chain)-1] {
			if n == name {
				bits += m.MemData(op, lev, l.Strides) * int64(l.Precision.Bits(op))
			}
		}
	}
	return bits
}

// String renders the mapping with per-operand level splits, e.g.
//
//	spatial: [K 16 | B 8 | C 2]
//	temporal(in->out): [C 4 | OX 8 | K 2]
//	W: L0=[C 4] L1=[OX 8] L2=[K 2]
func (m *Mapping) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spatial: %s\n", m.Spatial)
	fmt.Fprintf(&b, "temporal(in->out): %s\n", m.Temporal)
	for _, op := range loops.AllOperands {
		fmt.Fprintf(&b, "%s:", op)
		for l := 0; l < m.Levels(op); l++ {
			fmt.Fprintf(&b, " L%d=%s", l, m.LevelNest(op, l))
		}
		b.WriteString("\n")
	}
	return b.String()
}
