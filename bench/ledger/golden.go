package main

// Expected outputs and the checks every op's output goes through. Goldens
// are computed through the library path (network.Evaluate, mapper.Best);
// the system under test must reproduce them exactly — the repository's
// determinism contract makes any difference a bug, not noise.

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/bench/golden"
	"repro/internal/config"
	"repro/internal/mapper"
	"repro/internal/network"
	"repro/internal/serve"
	"repro/internal/workload"
)

// netGolden is one network's expected evaluation.
type netGolden struct {
	Name     string   `json:"name"`
	TotalCC  float64  `json:"total_cc"`
	TotalPJ  float64  `json:"total_pj"`
	Temporal []string `json:"temporal"` // per layer; "" for elementwise passes
}

// searchGolden is one single-layer search's expected winner.
type searchGolden struct {
	Name     string       `json:"name"`
	Layer    config.Layer `json:"layer"`
	Budget   int          `json:"budget"`
	Temporal string       `json:"temporal"`
	CCTotal  float64      `json:"cc_total"`
	EnergyPJ float64      `json:"energy_pj"`
}

// serveGoldens is serve-mix's hot set.
type serveGoldens struct {
	Search  []searchGolden `json:"search"`
	Network []netGolden    `json:"network"`
}

func netGoldenOf(name string, r *network.Result) netGolden {
	g := netGolden{Name: name, TotalCC: r.TotalCC, TotalPJ: r.TotalPJ, Temporal: make([]string, len(r.Layers))}
	for i := range r.Layers {
		if c := r.Layers[i].Candidate; c != nil {
			g.Temporal[i] = c.Mapping.Temporal.String()
		}
	}
	return g
}

// check reports how got differs from g (nil when identical).
func (g *netGolden) check(got netGolden) error {
	if got.TotalCC != g.TotalCC || got.TotalPJ != g.TotalPJ {
		return fmt.Errorf("%s: total %v cc / %v pJ, golden %v cc / %v pJ", g.Name, got.TotalCC, got.TotalPJ, g.TotalCC, g.TotalPJ)
	}
	if len(got.Temporal) != len(g.Temporal) {
		return fmt.Errorf("%s: %d layers, golden %d", g.Name, len(got.Temporal), len(g.Temporal))
	}
	for i := range g.Temporal {
		if got.Temporal[i] != g.Temporal[i] {
			return fmt.Errorf("%s layer %d: temporal %q, golden %q", g.Name, i, got.Temporal[i], g.Temporal[i])
		}
	}
	return nil
}

// netGoldenOfResponse converts a /v1/network answer.
func netGoldenOfResponse(name string, r *serve.NetworkResponse) netGolden {
	g := netGolden{Name: name, TotalCC: r.TotalCC, TotalPJ: r.TotalPJ, Temporal: make([]string, len(r.Layers))}
	for i := range r.Layers {
		g.Temporal[i] = r.Layers[i].Temporal
	}
	return g
}

// searchAnswer is the part of a /v1/search answer the ledger checks and
// counts.
type searchAnswer struct {
	Temporal string         `json:"temporal"`
	Mapping  config.Mapping `json:"mapping"`
	Result   struct {
		CCTotal float64 `json:"cc_total"`
	} `json:"result"`
	EnergyPJ float64 `json:"energy_pj"`
	Stats    *struct {
		NestsGenerated int `json:"nests_generated"`
		ClassesMerged  int `json:"classes_merged"`
		SubtreesPruned int `json:"subtrees_pruned"`
		Valid          int `json:"valid"`
		Pruned         int `json:"pruned"`
	} `json:"stats"`
}

func (g *searchGolden) check(temporal string, cc, pj float64) error {
	if temporal != g.Temporal || cc != g.CCTotal || pj != g.EnergyPJ {
		return fmt.Errorf("%s: winner %q (%v cc, %v pJ), golden %q (%v cc, %v pJ)",
			g.Name, temporal, cc, pj, g.Temporal, g.CCTotal, g.EnergyPJ)
	}
	return nil
}

// searchGoldenOf runs mapper.Best with the options the served search and
// the fabric use: the preset's spatial unrolling, the bandwidth-aware model
// and the given walk budget.
func searchGoldenOf(ctx context.Context, l workload.Layer, budget int) (searchGolden, error) {
	hw, sp := caseStudy()
	cand, _, err := mapper.Best(ctx, &l, hw, &mapper.Options{Spatial: sp, BWAware: true, MaxCandidates: budget})
	if err != nil {
		return searchGolden{}, err
	}
	return searchGolden{
		Name: l.Name, Layer: config.FromLayer(&l), Budget: budget,
		Temporal: cand.Mapping.Temporal.String(), CCTotal: cand.Result.CCTotal, EnergyPJ: cand.EnergyPJ,
	}, nil
}

// evalNetwork evaluates n the way net-cold and serve-mix do: default
// options (per-layer budget 6000).
func evalNetwork(ctx context.Context, n *network.Network) (*network.Result, error) {
	hw, sp := caseStudy()
	return network.Evaluate(ctx, n, hw, sp, &network.Options{})
}

// computeGoldens regenerates every golden through the library path.
func computeGoldens(ctx context.Context) (nets []netGolden, fab []searchGolden, sv serveGoldens, err error) {
	for _, name := range netNames {
		n, err := buildNetwork(name)
		if err != nil {
			return nil, nil, sv, err
		}
		r, err := evalNetwork(ctx, n)
		if err != nil {
			return nil, nil, sv, err
		}
		nets = append(nets, netGoldenOf(name, r))
	}
	for _, p := range fabricProblems() {
		g, err := searchGoldenOf(ctx, p.layer, p.budget)
		if err != nil {
			return nil, nil, sv, err
		}
		fab = append(fab, g)
	}
	for _, c := range hotConvs {
		g, err := searchGoldenOf(ctx, convLayer(c), searchBudget)
		if err != nil {
			return nil, nil, sv, err
		}
		sv.Search = append(sv.Search, g)
	}
	for _, seq := range hotSeqs {
		_, n, err := gpt2Spec(seq).Build()
		if err != nil {
			return nil, nil, sv, err
		}
		r, err := evalNetwork(ctx, n)
		if err != nil {
			return nil, nil, sv, err
		}
		sv.Network = append(sv.Network, netGoldenOf(n.Name, r))
	}
	return nets, fab, sv, nil
}

// loadGoldens decodes the embedded goldens and checks that they cover the
// workloads' inputs one for one.
func loadGoldens() (nets []netGolden, fab []searchGolden, sv serveGoldens, err error) {
	if err := json.Unmarshal(golden.Networks, &nets); err != nil {
		return nil, nil, sv, fmt.Errorf("golden networks: %w", err)
	}
	if err := json.Unmarshal(golden.Fabric, &fab); err != nil {
		return nil, nil, sv, fmt.Errorf("golden fabric: %w", err)
	}
	if err := json.Unmarshal(golden.Serve, &sv); err != nil {
		return nil, nil, sv, fmt.Errorf("golden serve: %w", err)
	}
	stale := fmt.Errorf("goldens do not match the workload inputs; regenerate with go test ./ledger -run TestGoldens -update")
	probs := fabricProblems()
	if len(nets) != len(netNames) || len(fab) != len(probs) ||
		len(sv.Search) != len(hotConvs) || len(sv.Network) != len(hotSeqs) {
		return nil, nil, sv, stale
	}
	for i := range nets {
		if nets[i].Name != netNames[i] {
			return nil, nil, sv, stale
		}
	}
	for i := range fab {
		if fab[i].Name != probs[i].name {
			return nil, nil, sv, stale
		}
	}
	for i := range sv.Search {
		if sv.Search[i].Name != convLayer(hotConvs[i]).Name {
			return nil, nil, sv, stale
		}
	}
	return nets, fab, sv, nil
}
