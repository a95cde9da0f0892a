package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/arch"
	"repro/internal/loops"
	"repro/internal/periodic"
)

// Evaluator runs repeated model evaluations while reusing every internal
// buffer: the endpoint slab of Step 1, the port-grouping and window scratch
// of Step 2 and the integration scratch of Step 3. A zero Evaluator is
// ready to use; it is NOT safe for concurrent use — give each goroutine its
// own (the mapper's worker pool does exactly that).
//
// Results returned by an Evaluator alias its internal buffers (the
// Endpoints in particular) and are overwritten by the next call on the same
// Evaluator. Use the package-level Evaluate, which runs a throwaway
// Evaluator, when the result must outlive later evaluations.
type Evaluator struct {
	plan archPlan // the architecture's chains and ports, resolved once per arch

	epStore []Endpoint  // value slab backing eps; never reallocated mid-build
	eps     []*Endpoint // Step-1 output
	eref    []*portRef  // eps[k]'s port

	groups   []portGroup    // Step-2 per-physical-port grouping
	gcount   []int          // rank -> member count scratch
	gnext    []int          // rank -> next free member slot scratch
	gepStore []*Endpoint    // the groups' members, group after group
	mems     []memEntry     // Step-3 per-memory reduction
	rigid    []rigidEntry   // rigid-stall accumulation scratch
	busy     []float64      // preload hop time per port-group rank
	sc       combineScratch // Eq. (1)/(2) scratch

	opc opCache // Step-1 sub-result memo tables (opcache.go)
}

// NewEvaluator returns an empty evaluator (equivalent to new(Evaluator)).
func NewEvaluator() *Evaluator { return &Evaluator{} }

// portGroup is the Step-2 grouping of DTL endpoints by physical port: the
// port is the plan's keys[rank], the members gepStore[lo:hi]. It holds no
// pointer, so building the groups costs no GC write barriers.
type portGroup struct {
	rank   int
	lo, hi int

	ss    float64
	muw   float64
	exact bool
}

// memEntry is one memory module's reduced stall (max over its ports).
type memEntry struct {
	name string
	ss   float64
}

// rigidEntry accumulates the per-unit-memory keep-out stalls, one max per
// link kind (indexed by LinkKind).
type rigidEntry struct {
	op    loops.Operand
	level int
	kind  [3]float64
}

// archPlan is what the model reads of an architecture: the memory chains
// and, for every (operand, chain level, direction), the port the access
// uses. None of it depends on the layer or the mapping, so an Evaluator
// resolves it once per architecture (pointer identity, like the op-cache)
// instead of looking ports up per endpoint and per hop. Port pointers are
// kept, not copies, so a bandwidth is read where the model reads it.
type archPlan struct {
	arch   *arch.Arch
	chains [loops.NumOperands][]*arch.Memory
	refs   [loops.NumOperands][][2]portRef // [op][level][0 read, 1 write]

	// Step 2 and the preload phase also need every port's group rank;
	// Step 1 alone (Endpoints) does not, so the ranks are filled on first
	// use.
	ranked bool
	keys   []groupKey // rank -> physical port, sorted
}

// portRef is one access's resolved port: what arch.Memory.Port returns for
// it, plus the rank of its physical port among the plan's keys.
type portRef struct {
	port *arch.Port
	idx  int
	err  error
	rank int
}

// groupKey names one physical port: (memory name, port index). Step 2
// groups endpoints by it and visits the groups in its sorted order.
type groupKey struct {
	mem  string
	port int
}

// resolve fills the plan's chains and ports for architecture a.
func (pl *archPlan) resolve(a *arch.Arch) {
	pl.arch, pl.ranked = a, false
	n := 0
	for _, op := range loops.AllOperands {
		pl.chains[op] = a.ChainMems(op)
		n += len(pl.chains[op])
	}
	refs := make([][2]portRef, n)
	for _, op := range loops.AllOperands {
		chain := pl.chains[op]
		pl.refs[op], refs = refs[:len(chain):len(chain)], refs[len(chain):]
		for lev, mem := range chain {
			for dir := range pl.refs[op][lev] {
				r := &pl.refs[op][lev][dir]
				r.port, r.idx, r.err = mem.Port(arch.Access{Operand: op, Write: dir == 1})
			}
		}
	}
}

// rank fills the plan's keys — its distinct physical ports in (memory
// name, port index) order — and every resolved port's rank among them.
func (pl *archPlan) rank() {
	pl.ranked = true
	pl.keys = pl.keys[:0]
	for _, op := range loops.AllOperands {
		for lev, mem := range pl.chains[op] {
			for _, r := range pl.refs[op][lev] {
				if k := (groupKey{mem: mem.Name, port: r.idx}); r.err == nil && !slices.Contains(pl.keys, k) {
					pl.keys = append(pl.keys, k)
				}
			}
		}
	}
	slices.SortFunc(pl.keys, func(x, y groupKey) int {
		return cmp.Or(strings.Compare(x.mem, y.mem), cmp.Compare(x.port, y.port))
	})
	for _, op := range loops.AllOperands {
		for lev, mem := range pl.chains[op] {
			for dir := range pl.refs[op][lev] {
				if r := &pl.refs[op][lev][dir]; r.err == nil {
					r.rank = slices.Index(pl.keys, groupKey{mem: mem.Name, port: r.idx})
				}
			}
		}
	}
}

// hopCC is the time to move elems elements of an operand of the given bit
// width from the port behind rd to the port behind wr: whole cycles at the
// slower of the two bandwidths, and 0 when either access has no port.
func hopCC(rd, wr *portRef, bits float64, elems int64) float64 {
	if rd.err != nil || wr.err != nil {
		return 0
	}
	bw := float64(rd.port.BWBits)
	if float64(wr.port.BWBits) < bw {
		bw = float64(wr.port.BWBits)
	}
	return math.Ceil(float64(elems) * bits / bw)
}

// planFor returns the plan of architecture a, resolving it when a differs
// from the last one seen.
func (ev *Evaluator) planFor(a *arch.Arch) *archPlan {
	if ev.plan.arch != a {
		ev.plan.resolve(a)
	}
	return &ev.plan
}

// rankedPlan is planFor with the port ranks filled and the per-rank
// scratch sized.
func (ev *Evaluator) rankedPlan(a *arch.Arch) *archPlan {
	pl := ev.planFor(a)
	if !pl.ranked {
		pl.rank()
		n := len(pl.keys)
		if cap(ev.busy) < n {
			ev.busy = make([]float64, n)
			ints := make([]int, 2*n)
			ev.gcount, ev.gnext = ints[:n:n], ints[n:]
		}
		ev.busy, ev.gcount, ev.gnext = ev.busy[:n], ev.gcount[:n], ev.gnext[:n]
	}
	return pl
}

// Evaluate runs the full 3-step latency model with diagnostics, like the
// package-level Evaluate, but reuses this evaluator's scratch. See the type
// comment for the aliasing contract.
func (ev *Evaluator) Evaluate(p *Problem) (*Result, error) {
	if p.Layer == nil || p.Arch == nil || p.Mapping == nil {
		return nil, fmt.Errorf("core: nil problem component")
	}
	eps, err := ev.buildEndpoints(p)
	if err != nil {
		return nil, err
	}
	ssRaw := ev.ssRaw(p, eps)
	ss := ssRaw
	if ss < 0 {
		ss = 0
	}

	ccIdeal := float64(p.Layer.TotalMACs()) / float64(p.Arch.MACs)
	ccSpatial := p.Mapping.CCSpatial()
	pre := ev.preloadCycles(p)
	post := ev.offloadCycles(p)

	r := &Result{
		CCIdeal:      ccIdeal,
		CCSpatial:    ccSpatial,
		SpatialStall: float64(ccSpatial) - ccIdeal,
		SSOverall:    ss,
		Preload:      pre,
		Offload:      post,
		CCTotal:      float64(ccSpatial) + ss + pre + post,
		Endpoints:    eps,
		Ports:        ev.portStalls(p),
		SSRaw:        ssRaw,
	}
	r.Memories = memStalls(r.Ports)
	r.Utilization = ccIdeal / r.CCTotal
	r.SpatialUtilization = ccIdeal / float64(ccSpatial)
	r.TemporalUtilization = float64(ccSpatial) / (float64(ccSpatial) + ss)

	spatialFull := float64(ccSpatial) <= ccIdeal+0.5
	temporalFull := ss <= 0
	switch {
	case spatialFull && temporalFull:
		r.Scenario = Scenario1
	case temporalFull:
		r.Scenario = Scenario2
	case spatialFull:
		r.Scenario = Scenario3
	default:
		r.Scenario = Scenario4
	}
	return r, nil
}

// ScoreLatency computes Evaluate(p).CCTotal — the full bandwidth-aware
// model — without materializing the Result or any diagnostic structure, and
// without a single heap allocation once the evaluator's scratch is warm.
// The returned value is bit-identical to Evaluate(p).CCTotal: both paths
// run the same Step 1-3 arithmetic in the same order. This is the mapper's
// hot path.
func (ev *Evaluator) ScoreLatency(p *Problem) (float64, error) {
	eps, err := ev.buildEndpoints(p)
	if err != nil {
		return 0, err
	}
	ss := ev.ssRaw(p, eps)
	if ss < 0 {
		ss = 0
	}
	ccSpatial := p.Mapping.CCSpatial()
	pre := ev.preloadCycles(p)
	post := ev.offloadCycles(p)
	return float64(ccSpatial) + ss + pre + post, nil
}

// LowerBound returns a cheap admissible lower bound on Evaluate(p).CCTotal:
// the bandwidth-UNAWARE total CC_spatial + preload + offload. Because the
// full model only ever adds a non-negative temporal stall SS_overall on top
// of these terms, the bound can never exceed the bandwidth-aware result —
// which is what makes it a sound branch-and-bound prune for latency-
// objective mapping searches. For the bandwidth-unaware model the bound IS
// the result (bit-identical to EvaluateBWUnaware(p).CCTotal).
func (ev *Evaluator) LowerBound(p *Problem) float64 {
	ev.opc.ensure(p)
	pre := ev.preloadCycles(p)
	post := ev.offloadCycles(p)
	return float64(p.Mapping.CCSpatial()) + pre + post
}

// LowerBound is the convenience form of Evaluator.LowerBound.
func LowerBound(p *Problem) float64 {
	var ev Evaluator
	return ev.LowerBound(p)
}

// ssRaw runs Steps 2 and 3 on the endpoint set: group by physical port,
// combine per port (Eq. 1/2 with the capacity bound), reduce per memory
// module, integrate across modules, and apply the rigid-stall accumulation.
// Returns the pre-clamp stall/slack.
func (ev *Evaluator) ssRaw(p *Problem, eps []*Endpoint) float64 {
	opts := p.opts()
	ev.groupPorts(p, eps)
	for i := range ev.groups {
		g := &ev.groups[i]
		g.ss, g.muw, g.exact = combineEq(ev.members(g), opts, &ev.sc)
	}
	ev.reduceMems()
	ssRaw := integrateValues(ev.mems, p.Arch.Combine)
	if !opts.NoRigidAccumulation {
		if rigid := ev.rigidTotal(eps); rigid > ssRaw {
			ssRaw = rigid
		}
	}
	return ssRaw
}

// groupPorts buckets endpoints by physical port into ev.groups, in the
// canonical order of the plan's ranks (memory name, then port index) so
// that all downstream float reductions happen in a deterministic order.
// Members keep endpoint order, and a port no endpoint uses this time (say,
// a psum read-back port of a nest without read-backs) gets no group.
func (ev *Evaluator) groupPorts(p *Problem, eps []*Endpoint) {
	ev.rankedPlan(p.Arch)
	clear(ev.gcount)
	for _, r := range ev.eref {
		ev.gcount[r.rank]++
	}
	if cap(ev.gepStore) < len(eps) {
		ev.gepStore = make([]*Endpoint, len(eps))
	}
	ev.gepStore = ev.gepStore[:len(eps)]
	ev.groups = ev.groups[:0]
	off := 0
	for r, n := range ev.gcount {
		if n == 0 {
			continue
		}
		ev.gnext[r] = off
		ev.groups = append(ev.groups, portGroup{rank: r, lo: off, hi: off + n})
		off += n
	}
	for k, e := range eps {
		r := ev.eref[k].rank
		ev.gepStore[ev.gnext[r]] = e
		ev.gnext[r]++
	}
}

// members returns group g's endpoints.
func (ev *Evaluator) members(g *portGroup) []*Endpoint {
	return ev.gepStore[g.lo:g.hi:g.hi]
}

// reduceMems folds the sorted port groups into one entry per memory module
// (ports within a module operate concurrently: max). Groups of one module
// are adjacent in rank order.
func (ev *Evaluator) reduceMems() {
	ev.mems = ev.mems[:0]
	for i := range ev.groups {
		g := &ev.groups[i]
		mem := ev.plan.keys[g.rank].mem
		if n := len(ev.mems); n > 0 && ev.mems[n-1].name == mem {
			if g.ss > ev.mems[n-1].ss {
				ev.mems[n-1].ss = g.ss
			}
			continue
		}
		ev.mems = append(ev.mems, memEntry{name: mem, ss: g.ss})
	}
}

// rigidTotal accumulates the structural stalls of keep-out-window links —
// the allocation-free, deterministically ordered equivalent of the
// map-based formulation described in DESIGN.md §5: per unit memory, take
// the max SS_u per link kind, then the max across kinds; unit memories
// accumulate by sum because their freezes occupy disjoint period
// boundaries.
func (ev *Evaluator) rigidTotal(eps []*Endpoint) float64 {
	ev.rigid = ev.rigid[:0]
	for _, e := range eps {
		if e.XReq >= e.MemCC || e.SSu <= 0 {
			continue
		}
		var ent *rigidEntry
		for i := range ev.rigid {
			if ev.rigid[i].op == e.Operand && ev.rigid[i].level == e.Level {
				ent = &ev.rigid[i]
				break
			}
		}
		if ent == nil {
			ev.rigid = append(ev.rigid, rigidEntry{op: e.Operand, level: e.Level})
			ent = &ev.rigid[len(ev.rigid)-1]
		}
		if e.SSu > ent.kind[e.Kind] {
			ent.kind[e.Kind] = e.SSu
		}
	}
	var total float64
	for i := range ev.rigid {
		unit := 0.0
		for _, v := range ev.rigid[i].kind {
			if v > unit {
				unit = v
			}
		}
		total += unit
	}
	return total
}

// integrateValues implements Step 3 over the per-memory stalls: concurrent
// memories hide each other's stalls (max); sequential memories accumulate
// (sum of the positive stalls, or the least slack when none stalls).
func integrateValues(mems []memEntry, mode arch.StallCombine) float64 {
	if len(mems) == 0 {
		return 0
	}
	if mode == arch.Sequential {
		var sum float64
		stalled := false
		for i := range mems {
			if mems[i].ss > 0 {
				sum += mems[i].ss
				stalled = true
			}
		}
		if stalled {
			return sum
		}
	}
	best := mems[0].ss
	for i := 1; i < len(mems); i++ {
		if mems[i].ss > best {
			best = mems[i].ss
		}
	}
	return best
}

// portStalls materializes the Step-2 diagnostics from the evaluator's
// groups (already combined by ssRaw). The PortStall structs are freshly
// allocated — they are returned to the caller inside the Result — but their
// Endpoints alias the evaluator's endpoint slab.
func (ev *Evaluator) portStalls(p *Problem) []*PortStall {
	prec := p.Layer.Precision
	out := make([]*PortStall, len(ev.groups))
	store := make([]PortStall, len(ev.groups))
	nEps := 0
	for i := range ev.groups {
		nEps += len(ev.members(&ev.groups[i]))
	}
	epBack := make([]*Endpoint, 0, nEps) // one backing array for all copies
	for i := range ev.groups {
		g := &ev.groups[i]
		k := ev.plan.keys[g.rank]
		mem := p.Arch.MemoryByName(k.mem)
		start := len(epBack)
		epBack = append(epBack, ev.members(g)...)
		ps := &store[i]
		*ps = PortStall{
			MemName:    k.mem,
			PortIdx:    k.port,
			PortName:   mem.Ports[k.port].Name,
			Endpoints:  epBack[start:len(epBack):len(epBack)],
			RealBWBits: mem.Ports[k.port].BWBits,
			MUWComb:    g.muw,
			MUWExact:   g.exact,
			SSComb:     g.ss,
		}
		for _, e := range ev.members(g) {
			if e.Access.Write {
				ps.ReqBWWriteBits += e.ReqBWBits(prec)
			} else {
				ps.ReqBWReadBits += e.ReqBWBits(prec)
			}
		}
		out[i] = ps
	}
	return out
}

// memStalls groups the port diagnostics by memory module, mirroring
// reduceMems (ports of one module are adjacent in the canonical order).
func memStalls(ports []*PortStall) []*MemStall {
	if len(ports) == 0 {
		return nil
	}
	n := 1
	for i := 1; i < len(ports); i++ {
		if ports[i].MemName != ports[i-1].MemName {
			n++
		}
	}
	store := make([]MemStall, 0, n)
	out := make([]*MemStall, 0, n)
	start := 0
	for i := 1; i <= len(ports); i++ {
		if i < len(ports) && ports[i].MemName == ports[start].MemName {
			continue
		}
		ss := ports[start].SSComb
		for _, ps := range ports[start+1 : i] {
			if ps.SSComb > ss {
				ss = ps.SSComb
			}
		}
		// Ports subslices the caller-owned ports list (same Result).
		store = append(store, MemStall{MemName: ports[start].MemName, Ports: ports[start:i:i], SS: ss})
		out = append(out, &store[len(store)-1])
		start = i
	}
	return out
}

// preloadOps: the operands whose first tiles ripple down during the
// pre-loading phase (outputs have nothing to load).
var preloadOps = [2]loops.Operand{loops.W, loops.I}

// preloadCycles estimates the data pre-loading phase (Fig. 1(a)): the first
// W and I tiles ripple down each operand's chain level by level; each hop
// moves the level's tile at the slower of the two port bandwidths. Operands
// load concurrently (the phase takes the slowest operand), EXCEPT where
// their hops read the same physical port — one port moves one tile at a
// time, so shared-port hop times serialize (the reference simulator's
// behaviour). The op-cache's prefix table must describe p's mapping.
func (ev *Evaluator) preloadCycles(p *Problem) float64 {
	pl := ev.rankedPlan(p.Arch)
	clear(ev.busy)
	worst := 0.0
	for _, op := range preloadOps {
		total := 0.0
		bits := float64(p.Layer.Precision.Bits(op))
		refs := pl.refs[op]
		for l := 0; l+1 < len(refs); l++ {
			rd := &refs[l+1][0]
			cc := hopCC(rd, &refs[l][1], bits, ev.opc.memData(p.Mapping, op, l))
			total += cc
			if rd.err == nil {
				ev.busy[rd.rank] += cc
			}
		}
		if total > worst {
			worst = total
		}
	}
	for _, cc := range ev.busy {
		if cc > worst {
			worst = cc
		}
	}
	return worst
}

// offloadCycles estimates the data offloading phase: the final O tile at
// each level drains up the chain. The op-cache's prefix table must describe
// p's mapping.
func (ev *Evaluator) offloadCycles(p *Problem) float64 {
	total := 0.0
	bits := float64(p.Layer.Precision.Bits(loops.O))
	refs := ev.planFor(p.Arch).refs[loops.O]
	for l := 0; l+1 < len(refs); l++ {
		total += hopCC(&refs[l][0], &refs[l+1][1], bits, ev.opc.memData(p.Mapping, loops.O, l))
	}
	return total
}

// buildEndpoints enumerates every DTL endpoint of the problem (Step 1) into
// the evaluator's endpoint slab. The slab is sized up front so that taking
// stable pointers into it is safe.
//
// For W and I, each interface between chain level l+1 and l carries a fill
// link (read at l+1, write at l). For O, each interface carries a drain
// link (read at l, write at l+1) and, when reduction loops sit above level
// l, a psum read-back link (read at l+1, write at l).
//
// Table I application: the keep-out scaling (TopRun) is decided by the
// unit memory that HOLDS the moving tile — level l — based on its
// double-buffering and the relevance of the top temporal loop of its level
// nest. Both endpoints of a link share the same allowed window; only their
// RealBW (and hence X_REAL and SS_u) differ.
func (ev *Evaluator) buildEndpoints(p *Problem) ([]*Endpoint, error) {
	bound := 0
	for _, op := range loops.AllOperands {
		levels := len(p.Arch.Chain[op])
		if levels < 2 {
			continue
		}
		per := 2 // fill: read + write
		if op == loops.O {
			per = 4 // drain + possible psum read-back
		}
		bound += (levels - 1) * per
	}
	if cap(ev.epStore) < bound {
		ev.epStore = make([]Endpoint, 0, bound)
	}
	if cap(ev.eps) < bound {
		ev.eps = make([]*Endpoint, 0, bound)
		ev.eref = make([]*portRef, 0, bound)
	}
	ev.epStore = ev.epStore[:0]
	ev.eps = ev.eps[:0]
	ev.eref = ev.eref[:0]

	prec := p.Layer.Precision
	pl := ev.planFor(p.Arch)
	ev.opc.ensure(p)

	for _, op := range loops.AllOperands {
		chain := pl.chains[op]
		if len(chain) < 2 {
			continue
		}
		quants := ev.opc.quants(p, op, chain)
		refs := pl.refs[op]
		for l := 0; l+1 < len(chain); l++ {
			lower, upper := l, l+1
			q := &quants[l]
			memData, memCC, z, topRun := q.memData, q.memCC, q.z, q.topRun
			if q.bad {
				return nil, fmt.Errorf("core: %s level %d: top reuse run %d does not divide Mem_CC %d", op, l, topRun, memCC)
			}
			xReq := memCC / topRun
			win := periodic.Tail(memCC, xReq, z)

			mk := func(lev int, write bool, kind LinkKind, zz int64) (*Endpoint, error) {
				dir := 0
				if write {
					dir = 1
				}
				r := &refs[lev][dir]
				if r.err != nil {
					return nil, r.err
				}
				port := r.port
				bits := int64(prec.Bits(op))
				realBW := float64(port.BWBits) / float64(bits)
				w := win
				w.Count = zz
				// A port moves whole bus words: one tile transfer occupies
				// an integer number of cycles (matching real buses and the
				// reference simulator).
				xReal := float64(loops.CeilDiv(memData*bits, port.BWBits))
				if p.opts().FractionalXReal {
					xReal = float64(memData*bits) / float64(port.BWBits)
				}
				ev.epStore = append(ev.epStore, Endpoint{
					Operand: op, Level: l, Kind: kind,
					MemName: chain[lev].Name, Access: arch.Access{Operand: op, Write: write}, PortIdx: r.idx,
					MemData: memData, MemCC: memCC, Z: zz, TopRun: topRun,
					ReqBWElems:  float64(memData) * float64(topRun) / float64(memCC),
					RealBWElems: realBW,
					XReq:        xReq,
					XReal:       xReal,
					Window:      w,
				})
				ep := &ev.epStore[len(ev.epStore)-1]
				ep.MUW = float64(ep.XReq) * float64(zz)
				ep.SSu = (ep.XReal - float64(ep.XReq)) * float64(zz)
				ev.eps = append(ev.eps, ep)
				ev.eref = append(ev.eref, r)
				return ep, nil
			}

			if op == loops.O {
				tr := q.traffic
				// Drain: read at the lower memory, write at the upper.
				if _, err := mk(lower, false, Drain, tr.WriteUps); err != nil {
					return nil, err
				}
				if _, err := mk(upper, true, Drain, tr.WriteUps); err != nil {
					return nil, err
				}
				if tr.ReadBacks > 0 {
					if _, err := mk(upper, false, PsumBack, tr.ReadBacks); err != nil {
						return nil, err
					}
					if _, err := mk(lower, true, PsumBack, tr.ReadBacks); err != nil {
						return nil, err
					}
				}
				continue
			}

			// W / I fill: read at the upper memory, write at the lower.
			if _, err := mk(upper, false, Fill, z); err != nil {
				return nil, err
			}
			if _, err := mk(lower, true, Fill, z); err != nil {
				return nil, err
			}
		}
	}
	return ev.eps, nil
}
