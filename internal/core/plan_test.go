package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/loops"
	"repro/internal/mapping"
	"repro/internal/workload"
)

// The references below are the Step-2 grouping and the preload/offload
// phases written the direct way: every port looked up by name per endpoint
// and per hop, groups discovered by a linear search and insertion-sorted,
// and every Mem_DATA re-derived in O(n) by mapping.MemData. The evaluator
// reads all of that off its per-arch plan and the op-cache's prefix table;
// TestPlanMatchesReference requires bit-identical results.

// refGroup is one reference Step-2 group.
type refGroup struct {
	mem   string
	port  int
	eps   []*Endpoint
	ss    float64
	muw   float64
	exact bool
}

// groupPortsReference buckets endpoints by (memory, port index) in
// discovery order, then sorts the groups by memory name and port index.
func groupPortsReference(eps []*Endpoint) []refGroup {
	var groups []refGroup
	for _, e := range eps {
		gi := -1
		for i := range groups {
			if groups[i].mem == e.MemName && groups[i].port == e.PortIdx {
				gi = i
				break
			}
		}
		if gi < 0 {
			groups = append(groups, refGroup{mem: e.MemName, port: e.PortIdx})
			gi = len(groups) - 1
		}
		groups[gi].eps = append(groups[gi].eps, e)
	}
	for i := 1; i < len(groups); i++ {
		for j := i; j > 0 && (groups[j].mem < groups[j-1].mem ||
			(groups[j].mem == groups[j-1].mem && groups[j].port < groups[j-1].port)); j-- {
			groups[j], groups[j-1] = groups[j-1], groups[j]
		}
	}
	return groups
}

// hopCyclesReference moves elems elements of op from src (read) to dst
// (write) at the slower port, looking both ports up.
func hopCyclesReference(p *Problem, src, dst *arch.Memory, op loops.Operand, elems int64) float64 {
	bits := float64(p.Layer.Precision.Bits(op))
	rp, _, err := src.Port(arch.Access{Operand: op, Write: false})
	if err != nil {
		return 0
	}
	wp, _, err := dst.Port(arch.Access{Operand: op, Write: true})
	if err != nil {
		return 0
	}
	bw := float64(rp.BWBits)
	if float64(wp.BWBits) < bw {
		bw = float64(wp.BWBits)
	}
	return math.Ceil(float64(elems) * bits / bw)
}

// preloadReference serializes shared-port hops through a name-keyed list.
func preloadReference(p *Problem) float64 {
	type busy struct {
		mem  string
		port int
		cc   float64
	}
	var ports []busy
	worst := 0.0
	for _, op := range preloadOps {
		total := 0.0
		chain := p.Arch.ChainMems(op)
		for l := 0; l+1 < len(chain); l++ {
			elems := p.Mapping.MemData(op, l, p.Layer.Strides)
			cc := hopCyclesReference(p, chain[l+1], chain[l], op, elems)
			total += cc
			if _, idx, err := chain[l+1].Port(arch.Access{Operand: op, Write: false}); err == nil {
				found := false
				for i := range ports {
					if ports[i].mem == chain[l+1].Name && ports[i].port == idx {
						ports[i].cc += cc
						found = true
						break
					}
				}
				if !found {
					ports = append(ports, busy{mem: chain[l+1].Name, port: idx, cc: cc})
				}
			}
		}
		if total > worst {
			worst = total
		}
	}
	for i := range ports {
		if ports[i].cc > worst {
			worst = ports[i].cc
		}
	}
	return worst
}

// offloadReference drains the final O tile up the chain.
func offloadReference(p *Problem) float64 {
	total := 0.0
	chain := p.Arch.ChainMems(loops.O)
	for l := 0; l+1 < len(chain); l++ {
		elems := p.Mapping.MemData(loops.O, l, p.Layer.Strides)
		total += hopCyclesReference(p, chain[l], chain[l+1], loops.O, elems)
	}
	return total
}

// stepTwoReference combines the reference groups of eps and reduces them
// per memory, as ssRaw does.
func stepTwoReference(p *Problem, eps []*Endpoint) ([]refGroup, []memEntry) {
	var sc combineScratch
	groups := groupPortsReference(eps)
	var mems []memEntry
	for i := range groups {
		g := &groups[i]
		g.ss, g.muw, g.exact = combineEq(g.eps, p.opts(), &sc)
		if n := len(mems); n > 0 && mems[n-1].name == g.mem {
			if g.ss > mems[n-1].ss {
				mems[n-1].ss = g.ss
			}
			continue
		}
		mems = append(mems, memEntry{name: g.mem, ss: g.ss})
	}
	return groups, mems
}

// checkAgainstReference evaluates p on ev and compares Evaluate's Ports,
// Memories, Preload and Offload, ScoreLatency and LowerBound with the
// references, bit for bit.
func checkAgainstReference(t *testing.T, ev *Evaluator, p *Problem) {
	t.Helper()
	pre, post := preloadReference(p), offloadReference(p)
	ccSpatial := float64(p.Mapping.CCSpatial())
	if got, want := ev.LowerBound(p), ccSpatial+pre+post; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: LowerBound %v, reference %v", p.Mapping.Temporal, got, want)
	}
	r, err := ev.Evaluate(p)
	if err != nil {
		t.Fatalf("%s: %v", p.Mapping.Temporal, err)
	}
	if math.Float64bits(r.Preload) != math.Float64bits(pre) || math.Float64bits(r.Offload) != math.Float64bits(post) {
		t.Fatalf("%s: preload/offload %v/%v, reference %v/%v", p.Mapping.Temporal, r.Preload, r.Offload, pre, post)
	}
	for _, e := range r.Endpoints {
		port, idx, err := p.Arch.MemoryByName(e.MemName).Port(e.Access)
		if err != nil || idx != e.PortIdx || e.RealBWElems != float64(port.BWBits)/float64(p.Layer.Precision.Bits(e.Operand)) {
			t.Fatalf("%s: endpoint %s on port %d (%v), lookup gives %d (%v)", p.Mapping.Temporal, e.Label(), e.PortIdx, e.RealBWElems, idx, err)
		}
	}
	groups, mems := stepTwoReference(p, r.Endpoints)
	if len(r.Ports) != len(groups) {
		t.Fatalf("%s: %d port groups, reference %d", p.Mapping.Temporal, len(r.Ports), len(groups))
	}
	for i, ps := range r.Ports {
		g := &groups[i]
		if ps.MemName != g.mem || ps.PortIdx != g.port || len(ps.Endpoints) != len(g.eps) ||
			math.Float64bits(ps.SSComb) != math.Float64bits(g.ss) ||
			math.Float64bits(ps.MUWComb) != math.Float64bits(g.muw) || ps.MUWExact != g.exact {
			t.Fatalf("%s: port %d = %s/%d (%d eps, SS %v), reference %s/%d (%d eps, SS %v)", p.Mapping.Temporal,
				i, ps.MemName, ps.PortIdx, len(ps.Endpoints), ps.SSComb, g.mem, g.port, len(g.eps), g.ss)
		}
		for k := range ps.Endpoints {
			if ps.Endpoints[k] != g.eps[k] {
				t.Fatalf("%s: port %s/%d member %d differs from the reference", p.Mapping.Temporal, g.mem, g.port, k)
			}
		}
	}
	if len(r.Memories) != len(mems) {
		t.Fatalf("%s: %d memories, reference %d", p.Mapping.Temporal, len(r.Memories), len(mems))
	}
	for i, ms := range r.Memories {
		if ms.MemName != mems[i].name || math.Float64bits(ms.SS) != math.Float64bits(mems[i].ss) {
			t.Fatalf("%s: memory %d = %s %v, reference %s %v", p.Mapping.Temporal, i, ms.MemName, ms.SS, mems[i].name, mems[i].ss)
		}
	}
	ss := integrateValues(mems, p.Arch.Combine)
	if !p.opts().NoRigidAccumulation {
		if rigid := ev.rigidTotal(r.Endpoints); rigid > ss {
			ss = rigid
		}
	}
	if ss < 0 {
		ss = 0
	}
	want := ccSpatial + ss + pre + post
	got, err := ev.ScoreLatency(p)
	if err != nil || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: ScoreLatency %v (%v), reference %v", p.Mapping.Temporal, got, err, want)
	}
}

// sharedPortArch is a two-level system whose buffer serves all three
// operands through two read ports and one write port: W and O reads share
// port "rd0", I reads use "rd1", so Step 2 and the preload phase both see
// several operands on one physical port.
func sharedPortArch() *arch.Arch {
	a := &arch.Arch{
		Name: "shared",
		MACs: 16,
		Memories: []*arch.Memory{
			{Name: "Reg", CapacityBits: 1 << 16, Serves: []loops.Operand{loops.W, loops.I, loops.O},
				Ports: []arch.Port{{Name: "rw", Dir: arch.ReadWrite, BWBits: 64}}},
			{Name: "Buf", CapacityBits: 1 << 24, Serves: []loops.Operand{loops.W, loops.I, loops.O},
				Ports: []arch.Port{
					{Name: "rd0", Dir: arch.Read, BWBits: 48},
					{Name: "rd1", Dir: arch.Read, BWBits: 32},
					{Name: "wr", Dir: arch.Write, BWBits: 40},
				},
				PortOf: map[arch.Access]int{{Operand: loops.I, Write: false}: 1}},
		},
	}
	for _, op := range loops.AllOperands {
		a.Chain[op] = []string{"Reg", "Buf"}
	}
	if err := a.Normalize(); err != nil {
		panic(err)
	}
	if err := a.Validate(); err != nil {
		panic(err)
	}
	return a
}

// referenceSpaces returns the architectures and spatial unrollings the
// reference comparison runs on: every preset plus the shared-port system.
func referenceSpaces() []struct {
	a       *arch.Arch
	spatial loops.Nest
} {
	return []struct {
		a       *arch.Arch
		spatial loops.Nest
	}{
		{arch.CaseStudy(), arch.CaseStudySpatial()},
		{arch.InHouse(), arch.InHouseSpatial()},
		{arch.RowStationary(), arch.RowStationarySpatial()},
		{arch.TPULike(), arch.TPULikeSpatial()},
		{sharedPortArch(), loops.Nest{{Dim: loops.K, Size: 4}, {Dim: loops.C, Size: 4}}},
	}
}

// TestPlanMatchesReference evaluates, on one shared Evaluator that switches
// architectures between problems, every ordering of a strided convolution's
// one-loop-per-dimension nest and random two-part splits of it, with greedy
// boundaries and with arbitrary ones, on every preset and the shared-port
// system, against the references.
func TestPlanMatchesReference(t *testing.T) {
	l := workload.NewConv2D("ref", 2, 64, 48, 14, 14, 3, 3)
	l.Strides = loops.Strides{SX: 2, SY: 2, DX: 1, DY: 1}
	spaces := referenceSpaces()
	rng := rand.New(rand.NewSource(1))
	var ev Evaluator
	checked := 0
	for _, sp := range spaces {
		spd := sp.spatial.DimProduct()
		var base loops.Nest
		for _, d := range loops.AllDims {
			if e := loops.CeilDiv(l.Dim(d), spd[d]); e > 1 {
				base = append(base, loops.Loop{Dim: d, Size: e})
			}
		}
		for i, nest := range permute(base) {
			if i%7 != 0 {
				continue
			}
			// Split one loop into two parts now and then.
			if i%3 == 0 {
				k := rng.Intn(len(nest))
				if divs := loops.Divisors(nest[k].Size); len(divs) > 2 {
					f := divs[1+rng.Intn(len(divs)-2)]
					outer := loops.Loop{Dim: nest[k].Dim, Size: nest[k].Size / f}
					nest[k].Size = f
					nest = append(nest, outer)
				}
			}
			m := &mapping.Mapping{Spatial: sp.spatial, Temporal: nest}
			for _, greedy := range []bool{true, false} {
				if greedy {
					if !assignBoundsTest(m, &l, sp.a) {
						continue
					}
				} else {
					for _, op := range loops.AllOperands {
						levels := sp.a.Levels(op)
						b := make([]int, levels)
						for lev := range b {
							b[lev] = rng.Intn(len(nest) + 1)
						}
						b[levels-1] = len(nest)
						for lev := 1; lev < levels; lev++ {
							b[lev] = max(b[lev], b[lev-1])
						}
						m.Bound[op] = b
					}
				}
				// Alternate architectures so the plan is re-resolved.
				other := spaces[checked%len(spaces)]
				_ = ev.LowerBound(&Problem{Layer: &l, Arch: other.a, Mapping: &mapping.Mapping{
					Spatial: other.spatial, Bound: [loops.NumOperands][]int{
						make([]int, other.a.Levels(loops.W)), make([]int, other.a.Levels(loops.I)), make([]int, other.a.Levels(loops.O))}}})
				checkAgainstReference(t, &ev, &Problem{Layer: &l, Arch: sp.a, Mapping: m})
				checked++
			}
		}
	}
	t.Logf("%d problems match the reference", checked)
}

// TestPlanMissingPort: an access without a port fails Evaluate and
// ScoreLatency with the error arch.Memory.Port gives for it, and counts as
// a zero-cycle hop in LowerBound, exactly as the references do; a missing
// port that no endpoint of the nest uses (a psum read-back port under an
// output-stationary nest) changes nothing.
func TestPlanMissingPort(t *testing.T) {
	l := workload.NewMatMul("µ", 2, 4, 8)
	psumRd := arch.Access{Operand: loops.O, Write: false}
	for _, c := range []struct {
		acc      arch.Access
		temporal loops.Nest
		fails    bool
	}{
		{arch.Access{Operand: loops.W, Write: false}, loops.Nest{{Dim: loops.C, Size: 8}, {Dim: loops.B, Size: 2}}, true},
		{arch.Access{Operand: loops.I, Write: true}, loops.Nest{{Dim: loops.C, Size: 8}, {Dim: loops.B, Size: 2}}, true},
		{psumRd, loops.Nest{{Dim: loops.B, Size: 2}, {Dim: loops.C, Size: 8}}, true},
		{psumRd, loops.Nest{{Dim: loops.C, Size: 8}, {Dim: loops.B, Size: 2}}, false},
	} {
		a := microArch(4, 32, 24, 16, false)
		gb := a.MemoryByName("GB")
		if c.acc.Write {
			gb = a.MemoryByName("Reg")
		}
		delete(gb.PortOf, c.acc)
		_, _, want := gb.Port(c.acc)
		m := &mapping.Mapping{Spatial: loops.Nest{{Dim: loops.K, Size: 4}}, Temporal: c.temporal}
		for _, op := range loops.AllOperands {
			m.Bound[op] = []int{1, 2}
		}
		p := &Problem{Layer: &l, Arch: a, Mapping: m}
		var ev Evaluator
		if !c.fails {
			checkAgainstReference(t, &ev, p)
			continue
		}
		if got, ref := ev.LowerBound(p), float64(m.CCSpatial())+preloadReference(p)+offloadReference(p); got != ref {
			t.Errorf("%s missing: LowerBound %v, reference %v", c.acc, got, ref)
		}
		if _, err := ev.Evaluate(p); err == nil || err.Error() != want.Error() {
			t.Errorf("%s missing: Evaluate error %v, want %v", c.acc, err, want)
		}
		if _, err := ev.ScoreLatency(p); err == nil || err.Error() != want.Error() {
			t.Errorf("%s missing: ScoreLatency error %v, want %v", c.acc, err, want)
		}
	}
}

// TestPlanBoundPastNest: a boundary past the nest's end panics in the
// table-based LowerBound just as mapping.MemData does, instead of reading
// a row the table kept from a longer nest.
func TestPlanBoundPastNest(t *testing.T) {
	p := microProblem(64, 32, 24, false)
	var ev Evaluator
	long := *p.Mapping
	long.Temporal = append(loops.Nest{{Dim: loops.C, Size: 1}}, p.Mapping.Temporal...)
	_ = ev.LowerBound(&Problem{Layer: p.Layer, Arch: p.Arch, Mapping: &long}) // fills a third row
	p.Mapping.Bound[loops.W] = []int{3, 2}
	panics := func(f func()) (did bool) {
		defer func() { did = recover() != nil }()
		f()
		return false
	}
	if !panics(func() { p.Mapping.MemData(loops.W, 0, p.Layer.Strides) }) {
		t.Fatal("mapping.MemData accepted a boundary past the nest")
	}
	if !panics(func() { ev.LowerBound(p) }) {
		t.Error("LowerBound read a boundary past the nest")
	}
}
