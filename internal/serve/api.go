package serve

// The JSON API. Three endpoints share the request-shaping conventions:
// architectures come either as a named preset ("inhouse", "casestudy",
// "rowstationary", "tpulike") or as an inline config.Arch; spatial
// unrollings as the loops.Nest string form ("K 16 | B 8 | C 2", preset
// default when omitted); and every request may carry timeout_ms, capped at
// the server's MaxTimeout. Bodies are decoded strictly — unknown fields are
// a 400, so typos fail loudly instead of silently falling back to defaults.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fabric"
	"repro/internal/loops"
	"repro/internal/mapper"
	"repro/internal/network"
	"repro/internal/otrace"
	"repro/internal/transformer"
	"repro/internal/workload"
)

// maxBodyBytes bounds request bodies (inline arch configs are a few KiB).
const maxBodyBytes = 1 << 20

// decodeBody strictly decodes the JSON request body into v: unknown fields
// and anything but whitespace after the one JSON value are rejected.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("bad request body: trailing data after the JSON value")
	}
	return nil
}

// archSpec is the shared architecture selector of every request.
type archSpec struct {
	// Arch names a preset; ArchConfig inlines a full architecture and wins
	// over Arch. Spatial overrides the preset's spatial unrolling (required
	// with ArchConfig).
	Arch       string       `json:"arch,omitempty"`
	ArchConfig *config.Arch `json:"arch_config,omitempty"`
	Spatial    string       `json:"spatial,omitempty"`
}

// resolve turns the spec into a live architecture and spatial nest.
func (a *archSpec) resolve() (*arch.Arch, loops.Nest, error) {
	var hw *arch.Arch
	var sp loops.Nest
	switch {
	case a.ArchConfig != nil:
		var err error
		hw, err = a.ArchConfig.ToArch()
		if err != nil {
			return nil, nil, err
		}
		if strings.TrimSpace(a.Spatial) == "" {
			return nil, nil, errors.New("inline arch_config requires an explicit spatial")
		}
	default:
		switch strings.ToLower(strings.TrimSpace(a.Arch)) {
		case "", "inhouse":
			hw, sp = arch.InHouse(), arch.InHouseSpatial()
		case "casestudy":
			hw, sp = arch.CaseStudy(), arch.CaseStudySpatial()
		case "rowstationary":
			hw, sp = arch.RowStationary(), arch.RowStationarySpatial()
		case "tpulike":
			hw, sp = arch.TPULike(), arch.TPULikeSpatial()
		default:
			return nil, nil, fmt.Errorf("unknown arch preset %q (want inhouse|casestudy|rowstationary|tpulike, or arch_config)", a.Arch)
		}
	}
	if strings.TrimSpace(a.Spatial) != "" {
		var err error
		sp, err = loops.ParseNest(a.Spatial)
		if err != nil {
			return nil, nil, err
		}
	}
	return hw, sp, nil
}

func parseObjective(s string) (mapper.Objective, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "latency":
		return mapper.MinLatency, nil
	case "energy":
		return mapper.MinEnergy, nil
	case "edp":
		return mapper.MinEDP, nil
	}
	return 0, fmt.Errorf("unknown objective %q (want latency|energy|edp)", s)
}

// resultJSON is the wire form of a core.Result's headline numbers.
type resultJSON struct {
	CCIdeal     float64 `json:"cc_ideal"`
	CCSpatial   int64   `json:"cc_spatial"`
	SSOverall   float64 `json:"ss_overall"`
	Preload     float64 `json:"preload"`
	Offload     float64 `json:"offload"`
	CCTotal     float64 `json:"cc_total"`
	Utilization float64 `json:"utilization"`
	Scenario    int     `json:"scenario"`
}

func fromResult(r *core.Result) resultJSON {
	return resultJSON{
		CCIdeal:     r.CCIdeal,
		CCSpatial:   r.CCSpatial,
		SSOverall:   r.SSOverall,
		Preload:     r.Preload,
		Offload:     r.Offload,
		CCTotal:     r.CCTotal,
		Utilization: r.Utilization,
		Scenario:    int(r.Scenario),
	}
}

// statsJSON is the wire form of mapper.Stats.
type statsJSON struct {
	NestsGenerated int `json:"nests_generated"`
	ClassesMerged  int `json:"classes_merged"`
	SubtreesPruned int `json:"subtrees_pruned"`
	Valid          int `json:"valid"`
	Skipped        int `json:"skipped"`
	Pruned         int `json:"pruned"`
}

func fromStats(st *mapper.Stats) *statsJSON {
	if st == nil {
		return nil
	}
	return &statsJSON{
		NestsGenerated: st.NestsGenerated,
		ClassesMerged:  st.ClassesMerged,
		SubtreesPruned: st.SubtreesPruned,
		Valid:          st.Valid,
		Skipped:        st.Skipped,
		Pruned:         st.Pruned,
	}
}

// EvalRequest prices ONE fixed mapping (no search): POST /v1/eval.
type EvalRequest struct {
	archSpec
	Layer     config.Layer    `json:"layer"`
	Mapping   *config.Mapping `json:"mapping"`
	BWUnaware bool            `json:"bw_unaware,omitempty"`
	TimeoutMS int             `json:"timeout_ms,omitempty"`
}

// EvalResponse is the answer to an EvalRequest.
type EvalResponse struct {
	Layer    string     `json:"layer"`
	Arch     string     `json:"arch"`
	Spatial  string     `json:"spatial"`
	Temporal string     `json:"temporal"`
	Result   resultJSON `json:"result"`
	EnergyPJ float64    `json:"energy_pj"`
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	var req EvalRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Mapping == nil {
		writeError(w, http.StatusBadRequest, "eval requires a mapping (use /v1/search to find one)")
		return
	}
	l, err := req.Layer.ToLayer()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	hw, _, err := req.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	m, err := req.Mapping.ToMapping()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := m.Validate(&l, hw); err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	p := &core.Problem{Layer: &l, Arch: hw, Mapping: m}
	var res *core.Result
	if req.BWUnaware {
		res, err = core.EvaluateBWUnaware(p)
	} else {
		res, err = core.Evaluate(p)
	}
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	eb, err := energy.Evaluate(p, nil)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, EvalResponse{
		Layer:    l.Name,
		Arch:     hw.Name,
		Spatial:  m.Spatial.String(),
		Temporal: m.Temporal.String(),
		Result:   fromResult(res),
		EnergyPJ: eb.TotalPJ,
	})
}

// SearchRequest runs a full mapping search: POST /v1/search.
type SearchRequest struct {
	archSpec
	Layer config.Layer `json:"layer"`
	// Budget caps the enumeration walk (mapper.Options.MaxCandidates).
	Budget     int    `json:"budget,omitempty"`
	Objective  string `json:"objective,omitempty"` // latency|energy|edp
	BWUnaware  bool   `json:"bw_unaware,omitempty"`
	Pow2Splits bool   `json:"pow2_splits,omitempty"`
	NoSym      bool   `json:"nosym,omitempty"`
	// Shards fans the exhaustive search out over K deterministic subtree
	// shards, executed on the server's configured peers (or in-process
	// without peers). Results are bit-identical to the unsharded search for
	// any K. Ignored with anneal.
	Shards int `json:"shards,omitempty"`
	// Anneal switches from the exhaustive engine to simulated annealing.
	Anneal     bool  `json:"anneal,omitempty"`
	Iterations int   `json:"iterations,omitempty"`
	Restarts   int   `json:"restarts,omitempty"`
	Seed       int64 `json:"seed,omitempty"`
	TimeoutMS  int   `json:"timeout_ms,omitempty"`
	// SearchID names this search for GET /v1/search/{id}/progress
	// ([A-Za-z0-9_.-]{1,64}; server-generated when omitted). The assigned id
	// is echoed in the response.
	SearchID string `json:"search_id,omitempty"`
}

// SearchResponse is the answer to a SearchRequest.
type SearchResponse struct {
	Layer    string         `json:"layer"`
	Arch     string         `json:"arch"`
	Spatial  string         `json:"spatial"`
	Temporal string         `json:"temporal"`
	Mapping  config.Mapping `json:"mapping"`
	Result   resultJSON     `json:"result"`
	EnergyPJ float64        `json:"energy_pj,omitempty"`
	Stats    *statsJSON     `json:"stats,omitempty"`
	// SearchID addresses this search's telemetry at
	// GET /v1/search/{id}/progress (empty in contexts with no tracker).
	SearchID string `json:"search_id,omitempty"`
}

// searchResponse builds the wire answer from a search outcome; the same
// constructor serves the handler and the determinism tests, so "the server
// returns exactly what the library returns" is checkable byte for byte.
func searchResponse(l *workload.Layer, hw *arch.Arch, cand *mapper.Candidate, stats *mapper.Stats) SearchResponse {
	return SearchResponse{
		Layer:    l.Name,
		Arch:     hw.Name,
		Spatial:  cand.Mapping.Spatial.String(),
		Temporal: cand.Mapping.Temporal.String(),
		Mapping:  config.FromMapping(cand.Mapping),
		Result:   fromResult(cand.Result),
		EnergyPJ: cand.EnergyPJ,
		Stats:    fromStats(stats),
	}
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	l, err := req.Layer.ToLayer()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	hw, sp, err := req.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	obj, err := parseObjective(req.Objective)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	tracker, err := s.progress.register(req.SearchID)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	tracker.setTrace(otrace.IDString(r.Context()))
	hooks := tracker.hooks(s.met)
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	var cand *mapper.Candidate
	var stats *mapper.Stats
	var steals atomic.Int64
	if req.Anneal {
		cand, err = mapper.AnnealCached(ctx, &l, hw, &mapper.AnnealOptions{
			Spatial:    sp,
			Iterations: req.Iterations,
			Restarts:   req.Restarts,
			Seed:       req.Seed,
			Objective:  obj,
			BWAware:    !req.BWUnaware,
			NoReduce:   req.NoSym,
			Hooks:      hooks,
		})
	} else {
		opt := &mapper.Options{
			Spatial:       sp,
			Pow2Splits:    req.Pow2Splits,
			MaxCandidates: req.Budget,
			Objective:     obj,
			BWAware:       !req.BWUnaware,
			NoReduce:      req.NoSym,
			Hooks:         hooks,
		}
		var run mapper.SearchFunc
		if req.Shards > 1 {
			// The original archSpec is forwarded verbatim so every shard
			// resolves the identical architecture, preset or inline.
			run = fabric.Runner(&fabric.Options{
				Shards:     req.Shards,
				Nodes:      s.cfg.Peers,
				ArchName:   req.Arch,
				ArchConfig: req.ArchConfig,
				Tenant:     tenantOf(r),
				TimeoutMS:  req.TimeoutMS,
				Steals:     &steals,
			})
			noteFrom(r.Context()).addShards(int64(req.Shards))
		}
		cand, stats, err = mapper.BestCachedVia(ctx, &l, hw, opt, run)
		noteFrom(r.Context()).addSteals(steals.Load())
	}
	if err != nil {
		tracker.finish(0, nil, err)
		writeError(w, s.errorStatus(r, err), err.Error())
		return
	}
	tracker.finish(cand.Score(obj), fromStats(stats), nil)
	if stats != nil {
		s.met.noteStats(stats)
	} else {
		s.met.search.searches.Add(1)
	}
	resp := searchResponse(&l, hw, cand, stats)
	resp.SearchID = tracker.id
	writeJSON(w, http.StatusOK, resp)
}

// NetworkRequest evaluates a whole DNN: POST /v1/network.
type NetworkRequest struct {
	archSpec
	// Net names a bundled workload: handtracking|resnet18|vgg16|mobilenetv2.
	// Exactly one of net / transformer_block must be given.
	Net string `json:"net,omitempty"`
	// Transformer builds a transformer-block network (internal/transformer)
	// from a preset plus overrides instead of a bundled suite.
	Transformer *transformer.Spec `json:"transformer_block,omitempty"`
	// Budget is the per-layer search budget (default 6000).
	Budget     int    `json:"budget,omitempty"`
	Objective  string `json:"objective,omitempty"`
	NoPrefetch bool   `json:"no_prefetch,omitempty"`
	NoSym      bool   `json:"nosym,omitempty"`
	PlanGB     bool   `json:"plan_gb,omitempty"`
	// Shards fans every cold per-layer mapping search out over K
	// deterministic subtree shards on the server's configured peers (the
	// same fabric /v1/shard uses). Results are bit-identical for any K.
	Shards    int `json:"shards,omitempty"`
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// NetworkLayerJSON is one layer's line in a NetworkResponse.
type NetworkLayerJSON struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Heads is the head-batch multiplicity of attention ops (present when
	// > 1). For mapped layers cc_total prices ONE head and effective_cc
	// covers all of them; head-batched elementwise passes stream every
	// head in one pass, so their cc_total is already whole-operator.
	Heads    int64  `json:"heads,omitempty"`
	Temporal string `json:"temporal,omitempty"`
	// CCTotal is the per-head mapped latency for matmul-shaped layers and
	// the streaming pass time for elementwise layers (which carry no
	// mapping; see read_bits/write_bits).
	CCTotal       float64 `json:"cc_total"`
	EffectiveCC   float64 `json:"effective_cc"`
	PrefetchSaved float64 `json:"prefetch_saved"`
	SpillCC       float64 `json:"spill_cc"`
	// ReadBits/WriteBits are the exact streamed traffic of elementwise
	// (bandwidth-bound) layers.
	ReadBits  int64   `json:"read_bits,omitempty"`
	WriteBits int64   `json:"write_bits,omitempty"`
	EnergyPJ  float64 `json:"energy_pj"`
	// EnergyError reports a failed energy model evaluation for this layer
	// (EnergyPJ is 0 and excluded from total_pj when set).
	EnergyError string  `json:"energy_error,omitempty"`
	Utilization float64 `json:"utilization"`
}

// NetworkResponse is the answer to a NetworkRequest.
type NetworkResponse struct {
	Net             string             `json:"net"`
	Arch            string             `json:"arch"`
	Layers          []NetworkLayerJSON `json:"layers"`
	TotalCC         float64            `json:"total_cc"`
	TotalPJ         float64            `json:"total_pj"`
	IdealCC         float64            `json:"ideal_cc"`
	PrefetchSavedCC float64            `json:"prefetch_saved_cc"`
	Utilization     float64            `json:"utilization"`
}

// bundledNetwork resolves the named workload suite.
func bundledNetwork(name string) (*network.Network, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "handtracking":
		return network.HandTracking(), nil
	case "resnet18":
		return &network.Network{Name: "resnet18", Layers: workload.ResNet18Suite()}, nil
	case "vgg16":
		return &network.Network{Name: "vgg16", Layers: workload.VGG16Suite()}, nil
	case "mobilenetv2":
		return &network.Network{Name: "mobilenetv2", Layers: workload.MobileNetV2Suite()}, nil
	}
	return nil, fmt.Errorf("unknown net %q (want handtracking|resnet18|vgg16|mobilenetv2)", name)
}

// requestedNetwork resolves a NetworkRequest's workload: a bundled suite or
// a transformer-block spec (exactly one).
func requestedNetwork(req *NetworkRequest) (*network.Network, error) {
	switch {
	case req.Transformer != nil && strings.TrimSpace(req.Net) != "":
		return nil, errors.New("give either net or transformer_block, not both")
	case req.Transformer != nil:
		_, net, err := req.Transformer.Build()
		return net, err
	default:
		return bundledNetwork(req.Net)
	}
}

// BuildNetworkResponse renders an evaluated network in the /v1/network wire
// form. Exported so cmd/xformer's -json output goes through the very same
// constructor as the server: the byte-identity guarantee between the HTTP
// path and the local CLI path is structural, not coincidental.
func BuildNetworkResponse(net *network.Network, hw *arch.Arch, res *network.Result) NetworkResponse {
	out := NetworkResponse{
		Net:             net.Name,
		Arch:            hw.Name,
		TotalCC:         res.TotalCC,
		TotalPJ:         res.TotalPJ,
		IdealCC:         res.IdealCC,
		PrefetchSavedCC: res.PrefetchSavedCC,
		Utilization:     res.Utilization,
	}
	for i := range res.Layers {
		lr := &res.Layers[i]
		lj := NetworkLayerJSON{
			Name:          lr.Original,
			Kind:          lr.Layer.Kind.String(),
			EffectiveCC:   lr.EffectiveCC,
			PrefetchSaved: lr.PrefetchSaved,
			SpillCC:       lr.SpillCC,
			EnergyPJ:      lr.EnergyPJ,
		}
		if h := lr.Layer.HeadCount(); h > 1 {
			lj.Heads = h
		}
		if lr.Candidate != nil {
			lj.Temporal = lr.Candidate.Mapping.Temporal.String()
			lj.CCTotal = lr.Candidate.Result.CCTotal
			lj.Utilization = lr.Candidate.Result.Utilization
		} else {
			// Elementwise: bandwidth-bound pass, no mapping.
			lj.CCTotal = lr.BWBoundCC
			lj.ReadBits = lr.ReadBits
			lj.WriteBits = lr.WriteBits
			lj.Utilization = 1
		}
		if lr.EnergyErr != nil {
			lj.EnergyError = lr.EnergyErr.Error()
		}
		out.Layers = append(out.Layers, lj)
	}
	return out
}

func (s *Server) handleNetwork(w http.ResponseWriter, r *http.Request) {
	var req NetworkRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	net, err := requestedNetwork(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	hw, sp, err := req.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	obj, err := parseObjective(req.Objective)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	var run mapper.SearchFunc
	if req.Shards > 1 {
		run = fabric.Runner(&fabric.Options{
			Shards:     req.Shards,
			Nodes:      s.cfg.Peers,
			ArchName:   req.Arch,
			ArchConfig: req.ArchConfig,
			Tenant:     tenantOf(r),
			TimeoutMS:  req.TimeoutMS,
		})
	}
	res, err := network.Evaluate(ctx, net, hw, sp, &network.Options{
		MaxCandidates: req.Budget,
		Objective:     obj,
		NoPrefetch:    req.NoPrefetch,
		NoReduce:      req.NoSym,
		PlanGB:        req.PlanGB,
		Run:           run,
	})
	if err != nil {
		writeError(w, s.errorStatus(r, err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, BuildNetworkResponse(net, hw, res))
}
