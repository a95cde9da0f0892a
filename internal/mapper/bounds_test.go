package mapper

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/loops"
	"repro/internal/mapping"
	"repro/internal/workload"
)

// assignBoundsReference is the greedy boundary assignment written the
// direct O(n²) way: every capacity check re-derives Mem_DATA from the
// mapping (mapping.MemData rebuilds the below-nest and spatial dim products
// per call). The prefix-table bounder (bounds.go) must agree with it on
// every nest.
func assignBoundsReference(m *mapping.Mapping, l *workload.Layer, a *arch.Arch) bool {
	n := len(m.Temporal)
	for _, op := range loops.AllOperands {
		chain := a.ChainMems(op)
		bounds := make([]int, len(chain))
		m.Bound[op] = bounds // MemData reads Bound; keep it current
		prev := 0
		for lev := range chain {
			if lev == len(chain)-1 {
				bounds[lev] = n
				break
			}
			capBits := chain[lev].MapperCapacityBits()
			bits := int64(l.Precision.Bits(op))
			b := prev
			bounds[lev] = b
			if m.MemData(op, lev, l.Strides)*bits > capBits {
				return false // spatial tile alone does not fit
			}
			for b < n {
				bounds[lev] = b + 1
				if m.MemData(op, lev, l.Strides)*bits > capBits {
					bounds[lev] = b
					break
				}
				b++
			}
			prev = bounds[lev]
		}
	}
	return true
}

// referenceChecker feeds nests, in order, through one canonicalizer — so
// the table rows and boundaries it carries from nest to nest are exercised exactly as along a walk — and requires, for each nest, the
// reference boundaries and the signature bytes core.AppendSignature builds
// from them.
type referenceChecker struct {
	l     *workload.Layer
	a     *arch.Arch
	canon *canonicalizer
	ev    core.Evaluator
	ref   mapping.Mapping
	got   mapping.Mapping
	sig   []byte
}

func newReferenceChecker(l *workload.Layer, a *arch.Arch, spatial loops.Nest) *referenceChecker {
	return &referenceChecker{l: l, a: a, canon: newCanonicalizer(l, a, spatial), ref: mapping.Mapping{Spatial: spatial}}
}

func (rc *referenceChecker) check(nest loops.Nest) error {
	rc.ref.Temporal = nest
	want := assignBoundsReference(&rc.ref, rc.l, rc.a)
	sig := rc.canon.signature(nest)
	if got := !bytes.Equal(sig, boundsFailSig); got != want {
		return fmt.Errorf("nest %s: bounder ok=%v (signature %x), reference ok=%v", nest, got, sig, want)
	}
	if !want {
		return nil
	}
	rc.canon.b.bounds(&rc.got)
	for _, op := range loops.AllOperands {
		if fmt.Sprint(rc.got.Bound[op]) != fmt.Sprint(rc.ref.Bound[op]) {
			return fmt.Errorf("nest %s: %s bounds %v, reference %v", nest, op, rc.got.Bound[op], rc.ref.Bound[op])
		}
	}
	rc.sig = rc.ev.AppendSignature(rc.sig[:0], &core.Problem{Layer: rc.l, Arch: rc.a, Mapping: &rc.ref})
	if !bytes.Equal(sig, rc.sig) {
		return fmt.Errorf("nest %s: signature %x, core.AppendSignature %x", nest, sig, rc.sig)
	}
	if err := rc.ref.Validate(rc.l, rc.a); rc.canon.b.valid() != (err == nil) {
		return fmt.Errorf("nest %s: bounder valid=%v, Validate: %v", nest, rc.canon.b.valid(), err)
	}
	return nil
}

// walkAll emits every ordering the budgeted walk visits (no reduction, no
// bound: nothing is merged or pruned away).
func walkAll(l *workload.Layer, a *arch.Arch, o Options, emit func(loops.Nest)) {
	o.NoReduce = true
	on := o.normalized()
	e := &engine{ctx: context.Background(), l: l, a: a, o: &on, mode: modeAll}
	var st Stats
	e.generate(&st, func(_ int64, nest loops.Nest) { emit(nest) })
}

// TestBounderMatchesReference walks the whole BenchmarkGenerateOnly space
// and every ResNet-18 and MobileNetV2 layer (lowered as the network
// evaluator lowers it, at its default budget of 6000) and checks every
// ordering's boundaries and signature against the O(n²) reference and
// core.AppendSignature.
func TestBounderMatchesReference(t *testing.T) {
	type space struct {
		l       workload.Layer
		a       *arch.Arch
		spatial loops.Nest
		budget  int
	}
	spaces := []space{{workload.NewMatMul("gen", 128, 128, 128), arch.CaseStudy(), arch.CaseStudySpatial(), 20000}}
	layers := append(workload.ResNet18Suite(), workload.MobileNetV2Suite()...)
	unique, _, _ := workload.DedupLayers(layers)
	for _, l := range unique {
		if l.Kind.Elementwise() {
			continue
		}
		search := workload.Im2Col(l)
		search.Heads = 0
		spaces = append(spaces, space{search, arch.InHouse(), arch.InHouseSpatial(), 6000})
	}
	total := 0
	for _, sp := range spaces {
		rc := newReferenceChecker(&sp.l, sp.a, sp.spatial)
		var err error
		walkAll(&sp.l, sp.a, Options{Spatial: sp.spatial, BWAware: true, MaxCandidates: sp.budget}, func(nest loops.Nest) {
			if err == nil {
				err = rc.check(nest)
				total++
			}
		})
		if err != nil {
			t.Fatalf("%s on %s: %v", sp.l.Name, sp.a.Name, err)
		}
	}
	t.Logf("%d orderings over %d spaces agree with the reference", total, len(spaces))
}

// TestBounderValidMatchesValidate walks the BenchmarkGenerateOnly space and
// every ResNet-18 and MobileNetV2 layer at budget 6000 on four presets,
// plus a TPU-like system whose shared unified buffer is shrunk until
// operands that each fit alone overflow it together, and requires the
// bounder's table-based validity verdict to equal mapping.Validate's on
// every ordering whose boundaries assign, and on over- and under-covering
// variants of every fourth one.
func TestBounderValidMatchesValidate(t *testing.T) {
	type space struct {
		l       workload.Layer
		a       *arch.Arch
		spatial loops.Nest
		budget  int
	}
	small := arch.TPULike()
	small.Name = "tpulike-smallub"
	small.MemoryByName("UB").CapacityBits = 24 * 1024
	presets := []struct {
		a       *arch.Arch
		spatial loops.Nest
	}{
		{arch.InHouse(), arch.InHouseSpatial()},
		{arch.CaseStudy(), arch.CaseStudySpatial()},
		{arch.RowStationary(), arch.RowStationarySpatial()},
		{arch.TPULike(), arch.TPULikeSpatial()},
		{small, arch.TPULikeSpatial()},
	}
	spaces := []space{{workload.NewMatMul("gen", 128, 128, 128), arch.CaseStudy(), arch.CaseStudySpatial(), 20000}}
	layers := append(workload.ResNet18Suite(), workload.MobileNetV2Suite()...)
	unique, _, _ := workload.DedupLayers(layers)
	for _, p := range presets {
		for _, l := range unique {
			if l.Kind.Elementwise() {
				continue
			}
			search := workload.Im2Col(l)
			search.Heads = 0
			spaces = append(spaces, space{search, p.a, p.spatial, 6000})
		}
	}
	var total, valid, sumRejects, covRejects int
	for _, sp := range spaces {
		c := newCanonicalizer(&sp.l, sp.a, sp.spatial)
		var err error
		check := func(nest loops.Nest) {
			if err != nil || !c.mapNest(nest) {
				return
			}
			total++
			verr := c.m.Validate(&sp.l, sp.a)
			if got := c.b.valid(); got != (verr == nil) {
				err = fmt.Errorf("nest %s: bounder valid=%v, Validate: %v", nest, got, verr)
				return
			}
			switch {
			case verr == nil:
				valid++
			case strings.Contains(verr.Error(), "covered"):
				covRejects++
			case sp.a == small && strings.Contains(verr.Error(), `"UB" needs`):
				sumRejects++
			}
		}
		var off loops.Nest
		walkAll(&sp.l, sp.a, Options{Spatial: sp.spatial, BWAware: true, MaxCandidates: sp.budget}, func(nest loops.Nest) {
			check(nest)
			if total%4 != 0 || len(nest) == 0 {
				return
			}
			// Two nests off the walk, which never over- or under-covers a
			// dimension: the outermost loop doubled (exactly twice the
			// minimal coverage when the walk did not pad its dimension),
			// and the outermost loop dropped.
			off = append(off[:0], nest...)
			off[len(off)-1].Size *= 2
			check(off)
			check(nest[:len(nest)-1])
		})
		if err != nil {
			t.Fatalf("%s on %s: %v", sp.l.Name, sp.a.Name, err)
		}
	}
	if covRejects == 0 {
		t.Error("no nest was rejected on coverage")
	}
	if sumRejects == 0 {
		t.Error("the shrunk unified buffer never rejected a nest on the summed footprint")
	}
	t.Logf("%d nests over %d spaces (%d valid, %d rejected on coverage, %d on the shared buffer's sum) agree with Validate",
		total, len(spaces), valid, covRejects, sumRejects)
}

// FuzzAssignBounds draws a layer (dims and strides), an architecture preset
// and a split of every dimension, then walks a sequence of orderings —
// swaps biased to the outer end as the permutation walk makes them,
// re-splits of the outermost dimension, now and then a fresh split, and
// between them unsigned assignments the way the generator's probes
// interleave — through one canonicalizer, checking each
// signed ordering against the reference boundaries, core.AppendSignature
// and mapping.Validate's verdict.
func FuzzAssignBounds(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint8(16), uint8(32), uint8(64), uint8(7), uint8(7), uint8(3), uint8(3), uint8(1))
	f.Add(uint8(1), uint64(7), uint8(1), uint8(64), uint8(3), uint8(28), uint8(28), uint8(5), uint8(5), uint8(2))
	f.Add(uint8(2), uint64(42), uint8(4), uint8(96), uint8(48), uint8(14), uint8(14), uint8(1), uint8(1), uint8(3))
	f.Add(uint8(3), uint64(9), uint8(2), uint8(200), uint8(128), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1))
	presets := []struct {
		a       func() *arch.Arch
		spatial func() loops.Nest
	}{
		{arch.CaseStudy, arch.CaseStudySpatial},
		{arch.InHouse, arch.InHouseSpatial},
		{arch.RowStationary, arch.RowStationarySpatial},
		{arch.TPULike, arch.TPULikeSpatial},
	}
	f.Fuzz(func(t *testing.T, preset uint8, seed uint64, b, k, c, oy, ox, fy, fx, stride uint8) {
		p := presets[int(preset)%len(presets)]
		dim := func(v uint8) int64 { return int64(v)%64 + 1 }
		l := workload.NewConv2D("fuzz", dim(b), dim(k), dim(c), dim(oy), dim(ox), int64(fy)%7+1, int64(fx)%7+1)
		s := int64(stride)%3 + 1
		l.Strides = loops.Strides{SX: s, SY: s, DX: int64(stride/3)%2 + 1, DY: 1}
		a, spatial := p.a(), p.spatial()
		rng := rand.New(rand.NewSource(int64(seed)))

		// One split alternative per dimension, drawn the way the walk draws
		// them (padded extents included).
		o := Options{Spatial: spatial, BWAware: true}
		on := o.normalized()
		_, dimSplits := walkSpace(&l, &on)
		draw := func() loops.Nest {
			var nest loops.Nest
			for _, d := range loops.AllDims {
				alts := dimSplits[d]
				for _, size := range alts[rng.Intn(len(alts))] {
					if size > 1 {
						nest = append(nest, loops.Loop{Dim: d, Size: size})
					}
				}
			}
			rng.Shuffle(len(nest), func(i, j int) { nest[i], nest[j] = nest[j], nest[i] })
			return nest
		}

		rc := newReferenceChecker(&l, a, spatial)
		nest := draw()
		for step := 0; step < 64; step++ {
			if err := rc.check(nest); err != nil {
				t.Fatal(err)
			}
			if step%8 == 7 {
				rc.canon.mapNest(draw()) // an unsigned assignment in between
			}
			next := nest.Clone()
			switch {
			case step%16 == 15:
				next = draw()
			case step%4 == 3 && len(next) > 0:
				// Re-split the outermost loop's dimension, its new parts
				// outermost: the inner prefix stays while the multiset — and
				// with a padded split the last table row — changes.
				d := next[len(next)-1].Dim
				alts := dimSplits[d]
				next = next[:0]
				for _, lp := range nest {
					if lp.Dim != d {
						next = append(next, lp)
					}
				}
				for _, size := range alts[rng.Intn(len(alts))] {
					if size > 1 {
						next = append(next, loops.Loop{Dim: d, Size: size})
					}
				}
			case len(next) >= 2:
				// Swap two positions, biased toward the outer end as the
				// walk's fastest-varying positions are.
				i := len(next) - 1 - rng.Intn(min(len(next), 4))
				j := rng.Intn(len(next))
				next[i], next[j] = next[j], next[i]
			}
			nest = next
		}
	})
}
