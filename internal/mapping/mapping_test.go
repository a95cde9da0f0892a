package mapping

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/loops"
	"repro/internal/workload"
)

// testMapping builds a small well-formed mapping on the case-study arch:
//
//	layer: MatMul B=16, K=32, C=8
//	spatial: K 16 | B 8 | C 2
//	temporal (in->out): [C 4 | B 2 | K 2]
//	W: reg=[] lb=[C 4] gb=[B 2 | K 2]
//	I: reg=[] lb=[C 4 | B 2] gb=[K 2]
//	O: reg=[C 4] gb=[B 2 | K 2]
func testMapping() (*Mapping, *workload.Layer, *arch.Arch) {
	l := workload.NewMatMul("t", 16, 32, 8)
	a := arch.CaseStudy()
	m := &Mapping{
		Spatial:  arch.CaseStudySpatial(),
		Temporal: loops.Nest{{Dim: loops.C, Size: 4}, {Dim: loops.B, Size: 2}, {Dim: loops.K, Size: 2}},
	}
	m.Bound[loops.W] = []int{0, 1, 3}
	m.Bound[loops.I] = []int{0, 2, 3}
	m.Bound[loops.O] = []int{1, 3}
	return m, &l, a
}

func TestValidateOK(t *testing.T) {
	m, l, a := testMapping()
	if err := m.Validate(l, a); err != nil {
		t.Fatal(err)
	}
}

func TestLevelNests(t *testing.T) {
	m, _, _ := testMapping()
	if got := m.LevelNest(loops.W, 0).String(); got != "[]" {
		t.Errorf("W L0 = %s", got)
	}
	if got := m.LevelNest(loops.W, 1).String(); got != "[C 4]" {
		t.Errorf("W L1 = %s", got)
	}
	if got := m.LevelNest(loops.W, 2).String(); got != "[B 2 | K 2]" {
		t.Errorf("W L2 = %s", got)
	}
	if got := m.LevelNest(loops.O, 0).String(); got != "[C 4]" {
		t.Errorf("O L0 = %s", got)
	}
	if got := m.AboveNest(loops.O, 0).String(); got != "[B 2 | K 2]" {
		t.Errorf("O above L0 = %s", got)
	}
	if got := m.BelowNest(loops.I, 1).Product(); got != 8 {
		t.Errorf("I below L1 product = %d", got)
	}
}

func TestMemData(t *testing.T) {
	m, l, _ := testMapping()
	st := l.Strides
	// W at reg: spatial r loops only: K16*C2 = 32.
	if got := m.MemData(loops.W, 0, st); got != 32 {
		t.Errorf("W MemData L0 = %d, want 32", got)
	}
	// W at LB: * C4 = 128.
	if got := m.MemData(loops.W, 1, st); got != 128 {
		t.Errorf("W MemData L1 = %d, want 128", got)
	}
	// W at GB: * K2 = 256 (B ir).
	if got := m.MemData(loops.W, 2, st); got != 256 {
		t.Errorf("W MemData L2 = %d, want 256", got)
	}
	// I at reg: B8*C2 = 16.
	if got := m.MemData(loops.I, 0, st); got != 16 {
		t.Errorf("I MemData L0 = %d, want 16", got)
	}
	// I at LB: * C4 * B2 = 128.
	if got := m.MemData(loops.I, 1, st); got != 128 {
		t.Errorf("I MemData L1 = %d, want 128", got)
	}
	// O at reg: K16*B8 * (nothing from C4) = 128.
	if got := m.MemData(loops.O, 0, st); got != 128 {
		t.Errorf("O MemData L0 = %d, want 128", got)
	}
	// O at GB: * B2 * K2 = 512.
	if got := m.MemData(loops.O, 1, st); got != 512 {
		t.Errorf("O MemData L1 = %d, want 512", got)
	}
}

func TestMemCCAndPeriods(t *testing.T) {
	m, _, _ := testMapping()
	if got := m.MemCC(loops.W, 0); got != 1 {
		t.Errorf("W MemCC L0 = %d", got)
	}
	if got := m.MemCC(loops.W, 1); got != 4 {
		t.Errorf("W MemCC L1 = %d", got)
	}
	if got := m.MemCC(loops.O, 0); got != 4 {
		t.Errorf("O MemCC L0 = %d", got)
	}
	if got := m.Periods(loops.W, 1); got != 4 {
		t.Errorf("W Periods L1 = %d", got)
	}
	if got := m.Periods(loops.O, 0); got != 4 {
		t.Errorf("O Periods L0 = %d", got)
	}
	if got := m.CCSpatial(); got != 16 {
		t.Errorf("CCSpatial = %d", got)
	}
	// Invariant: MemCC(l) * Periods(l) == CCSpatial for every operand/level.
	for _, op := range loops.AllOperands {
		for lev := 0; lev < m.Levels(op); lev++ {
			if m.MemCC(op, lev)*m.Periods(op, lev) != m.CCSpatial() {
				t.Errorf("%s L%d: MemCC*Periods != CCSpatial", op, lev)
			}
		}
	}
}

func TestTopReuseRun(t *testing.T) {
	m, _, _ := testMapping()
	// W L1 = [C 4]: C is r for W -> run 1.
	if got := m.TopReuseRun(loops.W, 1); got != 1 {
		t.Errorf("W L1 run = %d", got)
	}
	// O L0 = [C 4]: C is ir for O -> run 4.
	if got := m.TopReuseRun(loops.O, 0); got != 4 {
		t.Errorf("O L0 run = %d", got)
	}
	// I L1 = [C 4 | B 2]: top is B (r for I) -> run 1.
	if got := m.TopReuseRun(loops.I, 1); got != 1 {
		t.Errorf("I L1 run = %d", got)
	}
}

func TestOutputTraffic(t *testing.T) {
	m, _, _ := testMapping()
	// Above O L0: [B 2 | K 2], all r for O -> distinct=4 = Z -> no readbacks.
	tr := m.OutputTrafficAt(0)
	if tr.WriteUps != 4 || tr.ReadBacks != 0 || tr.FinalFraction != 1.0 {
		t.Errorf("output traffic = %+v", tr)
	}

	// Move one C loop above the O reg boundary: O: reg=[] gb=[C4 B2 K2].
	m2 := m.Clone()
	m2.Bound[loops.O] = []int{0, 3}
	tr2 := m2.OutputTrafficAt(0)
	// Z = 16, distinct = 4 -> 12 readbacks, final fraction 0.25.
	if tr2.WriteUps != 16 || tr2.ReadBacks != 12 {
		t.Errorf("psum traffic = %+v", tr2)
	}
	if tr2.FinalFraction != 0.25 {
		t.Errorf("final fraction = %v", tr2.FinalFraction)
	}
}

func TestSpatialUtilization(t *testing.T) {
	m, _, a := testMapping()
	if got := m.SpatialUtilization(a); got != 1.0 {
		t.Errorf("spatial utilization = %v, want 1", got)
	}
	m.Spatial = loops.Nest{{Dim: loops.K, Size: 16}, {Dim: loops.B, Size: 8}}
	if got := m.SpatialUtilization(a); got != 0.5 {
		t.Errorf("spatial utilization = %v, want 0.5", got)
	}
}

func TestValidateErrors(t *testing.T) {
	t.Run("spatial too large", func(t *testing.T) {
		m, l, a := testMapping()
		m.Spatial = append(m.Spatial.Clone(), loops.Loop{Dim: loops.B, Size: 4})
		if err := m.Validate(l, a); err == nil {
			t.Error("oversized spatial validated")
		}
	})
	t.Run("wrong boundary count", func(t *testing.T) {
		m, l, a := testMapping()
		m.Bound[loops.W] = []int{0, 3}
		if err := m.Validate(l, a); err == nil {
			t.Error("short boundary list validated")
		}
	})
	t.Run("decreasing boundaries", func(t *testing.T) {
		m, l, a := testMapping()
		m.Bound[loops.W] = []int{2, 1, 3}
		if err := m.Validate(l, a); err == nil {
			t.Error("decreasing boundaries validated")
		}
	})
	t.Run("last boundary short", func(t *testing.T) {
		m, l, a := testMapping()
		m.Bound[loops.W] = []int{0, 1, 2}
		if err := m.Validate(l, a); err == nil {
			t.Error("short outermost boundary validated")
		}
	})
	t.Run("under-coverage", func(t *testing.T) {
		m, l, a := testMapping()
		big := *l
		big.Dims[loops.C] = 64
		if err := m.Validate(&big, a); err == nil {
			t.Error("under-covered layer validated")
		}
	})
	t.Run("over-coverage", func(t *testing.T) {
		m, l, a := testMapping()
		small := *l
		small.Dims[loops.K] = 16 // spatial 16 alone covers; temporal K2 overshoots
		if err := m.Validate(&small, a); err == nil {
			t.Error("over-covered layer validated")
		}
	})
	t.Run("capacity", func(t *testing.T) {
		m, l, a := testMapping()
		a.MemoryByName("W-LB").CapacityBits = 64 // W tile at LB needs 128*8 bits
		if err := m.Validate(l, a); err == nil {
			t.Error("capacity violation validated")
		}
	})
	t.Run("bad loop size", func(t *testing.T) {
		m, l, a := testMapping()
		m.Temporal[0].Size = 0
		if err := m.Validate(l, a); err == nil {
			t.Error("zero loop validated")
		}
	})
}

func TestValidatePadding(t *testing.T) {
	// Layer K=24 with spatial K16: temporal K2 gives ceil coverage 32>=24, OK.
	l := workload.NewMatMul("p", 16, 24, 8)
	a := arch.CaseStudy()
	m := &Mapping{
		Spatial:  arch.CaseStudySpatial(),
		Temporal: loops.Nest{{Dim: loops.C, Size: 4}, {Dim: loops.B, Size: 2}, {Dim: loops.K, Size: 2}},
	}
	m.Bound[loops.W] = []int{0, 1, 3}
	m.Bound[loops.I] = []int{0, 2, 3}
	m.Bound[loops.O] = []int{1, 3}
	if err := m.Validate(&l, a); err != nil {
		t.Fatalf("padded mapping rejected: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	m, _, _ := testMapping()
	c := m.Clone()
	c.Temporal[0].Size = 99
	c.Bound[loops.W][0] = 3
	if m.Temporal[0].Size == 99 || m.Bound[loops.W][0] == 3 {
		t.Error("Clone aliases state")
	}
}

func TestString(t *testing.T) {
	m, _, _ := testMapping()
	s := m.String()
	for _, want := range []string{"spatial:", "temporal(in->out):", "W:", "I:", "O:", "L0=", "L1="} {
		if !strings.Contains(s, want) {
			t.Errorf("String misses %q in:\n%s", want, s)
		}
	}
}

// Property: for random boundary positions, MemCC divides CCSpatial and
// MemData is monotonically non-decreasing with level.
func TestMappingInvariants(t *testing.T) {
	l := workload.NewMatMul("q", 16, 32, 8)
	f := func(b1, b2 uint8) bool {
		m, _, _ := testMapping()
		n := len(m.Temporal)
		x, y := int(b1)%(n+1), int(b2)%(n+1)
		if x > y {
			x, y = y, x
		}
		m.Bound[loops.W] = []int{x, y, n}
		for _, op := range []loops.Operand{loops.W} {
			prev := int64(0)
			for lev := 0; lev < m.Levels(op); lev++ {
				if m.CCSpatial()%m.MemCC(op, lev) != 0 {
					return false
				}
				d := m.MemData(op, lev, l.Strides)
				if d < prev {
					return false
				}
				prev = d
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestValidateNoAlloc: Validate runs on every materialized candidate and
// every fixed-mapping request, so a passing check allocates nothing.
func TestValidateNoAlloc(t *testing.T) {
	for name, mk := range map[string]func() (*Mapping, *workload.Layer, *arch.Arch){
		"matmul": testMapping, "conv": convMapping,
	} {
		m, l, a := mk()
		if err := m.Validate(l, a); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = m.Validate(l, a) }); n != 0 {
			t.Errorf("%s: Validate allocates %v times per call", name, n)
		}
	}
}

// TestValidateOverflowOrder: when two modules overflow, Validate reports
// the one whose first non-top chain level comes first (W's chain before
// I's), on every call.
func TestValidateOverflowOrder(t *testing.T) {
	m, l, a := testMapping()
	a.MemoryByName("W-LB").CapacityBits = 64 // W tile at LB needs 32*4*8 bits
	a.MemoryByName("I-LB").CapacityBits = 64 // I tile at LB needs 16*8*8 bits
	const want = `mapping: memory "W-LB" needs 1024 bits > mapper-visible capacity 32`
	for i := 0; i < 200; i++ {
		err := m.Validate(l, a)
		if err == nil || err.Error() != want {
			t.Fatalf("call %d: got %v, want %s", i, err, want)
		}
	}
}
