// Package dse implements the Case-3 architecture design-space exploration
// (paper Fig. 8): it generates accelerator variants from a memory pool —
// register and local-buffer capacity candidates around three MAC array
// sizes — evaluates each point's best mapping with the latency model
// (bandwidth-aware or -unaware), prices its area, and extracts the
// latency/area Pareto front.
package dse

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/area"
	"repro/internal/loops"
	"repro/internal/mapper"
	"repro/internal/par"
	"repro/internal/workload"
)

// ArrayChoice is one MAC-array size with its scaled spatial unrolling
// (paper Section V-C: 16x16 = K16|B8|C2, 32x32 = K32|B16|C2,
// 64x64 = K64|B32|C2).
type ArrayChoice struct {
	Name    string
	MACs    int64
	Spatial loops.Nest
}

// PaperArrays returns the three array sizes of Fig. 8.
func PaperArrays() []ArrayChoice {
	mk := func(name string, k, b, c int64) ArrayChoice {
		return ArrayChoice{
			Name: name,
			MACs: k * b * c,
			Spatial: loops.Nest{
				{Dim: loops.K, Size: k},
				{Dim: loops.B, Size: b},
				{Dim: loops.C, Size: c},
			},
		}
	}
	return []ArrayChoice{
		mk("16x16", 16, 8, 2),
		mk("32x32", 32, 16, 2),
		mk("64x64", 64, 32, 2),
	}
}

// Config parametrizes a sweep.
type Config struct {
	Arrays []ArrayChoice
	// RegMults are register capacities in multiples of the spatial tile.
	RegMults []int64
	// WLBKiB / ILBKiB are local-buffer capacity candidates.
	WLBKiB []int64
	ILBKiB []int64
	// GBBWBits is the global-buffer port bandwidth (bits/cycle) of this
	// sweep (Fig. 8 contrasts 128 vs 1024).
	GBBWBits int64
	// BWAware false reproduces the Fig. 8(a) baseline.
	BWAware bool
	// Layer is the workload each point is optimized for.
	Layer workload.Layer
	// MaxCandidates bounds the per-point mapping search.
	MaxCandidates int
	// NoReduce disables the symmetry-reduced enumeration in the per-point
	// searches; results are identical, only search time changes.
	NoReduce bool
	// Workers bounds parallelism: 0 draws from the shared process-wide
	// worker budget (package par), n >= 1 forces exactly n workers.
	Workers int
}

// DefaultConfig returns a pool comparable in spirit to the paper's
// "tens of register/memory candidates": 3 arrays x 3 reg sizes x 4 W-LB x
// 4 I-LB = 432 designs per GB bandwidth.
func DefaultConfig(gbBW int64, bwAware bool) *Config {
	return &Config{
		Arrays:   PaperArrays(),
		RegMults: []int64{2, 4, 8},
		WLBKiB:   []int64{8, 16, 32, 64},
		ILBKiB:   []int64{4, 8, 16, 32},
		GBBWBits: gbBW,
		BWAware:  bwAware,
		// The sweep workload: output-heavy (small C) so the GB write path
		// matters, with K=96 so the 64x64 array pads its K dimension to
		// 128 — the realistic awkward-fit case where bandwidth awareness
		// changes the array-size verdict (paper Fig. 8(b) vs (c)).
		Layer:         workload.NewMatMul("dse", 192, 96, 64),
		MaxCandidates: 400,
	}
}

// Point is one evaluated design.
type Point struct {
	Arch    *arch.Arch
	Array   string
	Spatial loops.Nest
	Latency float64
	Areamm2 float64 // GB excluded, as in the paper
	Mapping string  // best mapping's temporal nest, for reports
	Valid   bool
}

// BuildArch constructs one design point's architecture. Register and local
// buffer port bandwidths scale with the array size (wires widen with the
// array); the GB bandwidth is the swept parameter.
func BuildArch(ac ArrayChoice, regMult, wlbKiB, ilbKiB, gbBW int64) *arch.Arch {
	sp := ac.Spatial.DimProduct()
	wTile := sp[loops.K] * sp[loops.C] // distinct weights per cycle
	iTile := sp[loops.B] * sp[loops.C] // distinct inputs per cycle
	oTile := sp[loops.K] * sp[loops.B] // distinct outputs held
	const kib = 1024 * 8
	a := &arch.Arch{
		Name:    fmt.Sprintf("%s-r%d-w%d-i%d-gb%d", ac.Name, regMult, wlbKiB, ilbKiB, gbBW),
		MACs:    ac.MACs,
		Combine: arch.Concurrent,
		Memories: []*arch.Memory{
			{
				Name:         "W-Reg",
				CapacityBits: regMult * wTile * 8,
				Serves:       []loops.Operand{loops.W},
				Ports:        []arch.Port{{Name: "rw", Dir: arch.ReadWrite, BWBits: wTile * 4}},
			},
			{
				Name:         "I-Reg",
				CapacityBits: regMult * iTile * 8,
				Serves:       []loops.Operand{loops.I},
				Ports:        []arch.Port{{Name: "rw", Dir: arch.ReadWrite, BWBits: iTile * 16}},
			},
			{
				Name:         "O-Reg",
				CapacityBits: regMult * oTile * 24,
				Serves:       []loops.Operand{loops.O},
				Ports:        []arch.Port{{Name: "rw", Dir: arch.ReadWrite, BWBits: oTile * 24}},
			},
			{
				Name:           "W-LB",
				CapacityBits:   wlbKiB * kib,
				DoubleBuffered: true,
				Serves:         []loops.Operand{loops.W},
				Ports: []arch.Port{
					{Name: "rd", Dir: arch.Read, BWBits: wTile * 4},
					{Name: "wr", Dir: arch.Write, BWBits: wTile * 4},
				},
			},
			{
				Name:           "I-LB",
				CapacityBits:   ilbKiB * kib,
				DoubleBuffered: true,
				Serves:         []loops.Operand{loops.I},
				Ports: []arch.Port{
					{Name: "rd", Dir: arch.Read, BWBits: iTile * 16},
					{Name: "wr", Dir: arch.Write, BWBits: iTile * 8},
				},
			},
			{
				Name:         "GB",
				CapacityBits: 1024 * kib,
				Serves:       []loops.Operand{loops.W, loops.I, loops.O},
				Ports: []arch.Port{
					{Name: "rd", Dir: arch.Read, BWBits: gbBW},
					{Name: "wr", Dir: arch.Write, BWBits: gbBW},
				},
			},
		},
	}
	a.Chain[loops.W] = []string{"W-Reg", "W-LB", "GB"}
	a.Chain[loops.I] = []string{"I-Reg", "I-LB", "GB"}
	a.Chain[loops.O] = []string{"O-Reg", "GB"}
	if err := a.Normalize(); err != nil {
		panic("dse: bad generated arch: " + err.Error())
	}
	if err := a.Validate(); err != nil {
		panic("dse: bad generated arch: " + err.Error())
	}
	return a
}

// Sweep evaluates every design in the config's pool. Points whose mapping
// search fails are returned with Valid=false. Cancellation propagates into
// every per-point mapping search; a canceled sweep returns ctx.Err() and no
// points.
func Sweep(ctx context.Context, cfg *Config) ([]Point, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(cfg.Arrays) == 0 {
		return nil, fmt.Errorf("dse: no array choices")
	}
	type task struct {
		idx int
		ac  ArrayChoice
		rm  int64
		wlb int64
		ilb int64
	}
	var tasks []task
	for _, ac := range cfg.Arrays {
		for _, rm := range cfg.RegMults {
			for _, w := range cfg.WLBKiB {
				for _, i := range cfg.ILBKiB {
					tasks = append(tasks, task{len(tasks), ac, rm, w, i})
				}
			}
		}
	}
	points := make([]Point, len(tasks))
	am := area.Default7nm()

	// Sweep points share the process-wide worker budget with the mapping
	// searches they invoke: when the sweep saturates the budget, the inner
	// searches run serially, and vice versa — never oversubscribed.
	par.ForEachLimit(len(tasks), cfg.Workers, func(i int) {
		if ctx.Err() != nil {
			return // canceled: skip the remaining points promptly
		}
		tk := tasks[i]
		a := BuildArch(tk.ac, tk.rm, tk.wlb, tk.ilb, cfg.GBBWBits)
		pt := Point{
			Arch:    a,
			Array:   tk.ac.Name,
			Spatial: tk.ac.Spatial,
			Areamm2: am.Arch(a, "GB"),
		}
		layer := cfg.Layer
		// Cached search: sweep grids re-visit (arch, layer) points across
		// panels and CLI invocations; the fingerprint is content-addressed,
		// so each freshly built (but structurally identical) Arch hits.
		best, _, err := mapper.BestCached(ctx, &layer, a, &mapper.Options{
			Spatial:       tk.ac.Spatial,
			BWAware:       cfg.BWAware,
			Pow2Splits:    true,
			MaxCandidates: cfg.MaxCandidates,
			NoReduce:      cfg.NoReduce,
		})
		if err == nil {
			pt.Latency = best.Result.CCTotal
			pt.Mapping = best.Mapping.Temporal.String()
			pt.Valid = true
		}
		points[tk.idx] = pt
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return points, nil
}

// Pareto returns the latency/area Pareto-optimal subset of the valid
// points, sorted by area.
func Pareto(points []Point) []Point {
	var valid []Point
	for _, p := range points {
		if p.Valid {
			valid = append(valid, p)
		}
	}
	sort.Slice(valid, func(i, j int) bool {
		if valid[i].Areamm2 != valid[j].Areamm2 {
			return valid[i].Areamm2 < valid[j].Areamm2
		}
		return valid[i].Latency < valid[j].Latency
	})
	var front []Point
	bestLat := 0.0
	for _, p := range valid {
		if len(front) == 0 || p.Latency < bestLat {
			front = append(front, p)
			bestLat = p.Latency
		}
	}
	return front
}

// BestPerArray returns, per array size, the lowest-latency valid point.
func BestPerArray(points []Point) map[string]Point {
	out := map[string]Point{}
	for _, p := range points {
		if !p.Valid {
			continue
		}
		cur, ok := out[p.Array]
		if !ok || p.Latency < cur.Latency {
			out[p.Array] = p
		}
	}
	return out
}
