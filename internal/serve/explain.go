package serve

// POST /v1/explain: the stall-attribution explainer (internal/obs) over
// HTTP. With an explicit mapping the layer is evaluated directly; without
// one a search (memoized, like /v1/search) picks the best mapping first and
// the explainer runs on the winner. The response carries the full
// obs.Report — per-DTL / per-port stall attribution summing exactly to
// SS_overall, plus the critical stall chain — and optionally the Perfetto
// trace-event file inline.

import (
	"encoding/json"
	"net/http"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/obs"
)

// ExplainRequest asks for a stall-attribution report: POST /v1/explain.
type ExplainRequest struct {
	archSpec
	Layer config.Layer `json:"layer"`
	// Mapping explains the given mapping; when omitted, a search finds the
	// best one first (budget/objective as in /v1/search).
	Mapping    *config.Mapping `json:"mapping,omitempty"`
	Budget     int             `json:"budget,omitempty"`
	Objective  string          `json:"objective,omitempty"`
	Pow2Splits bool            `json:"pow2_splits,omitempty"`
	NoSym      bool            `json:"nosym,omitempty"`
	// IncludeTrace embeds the Chrome/Perfetto trace-event file in the
	// response; TracePeriods caps slices per endpoint (default 64).
	IncludeTrace bool `json:"include_trace,omitempty"`
	TracePeriods int  `json:"trace_periods,omitempty"`
	TimeoutMS    int  `json:"timeout_ms,omitempty"`
}

// ExplainResponse is the answer to an ExplainRequest.
type ExplainResponse struct {
	Layer    string `json:"layer"`
	Arch     string `json:"arch"`
	Spatial  string `json:"spatial"`
	Temporal string `json:"temporal"`
	// Searched reports whether the mapping came from a search (true) or the
	// request (false).
	Searched bool        `json:"searched"`
	Result   resultJSON  `json:"result"`
	Report   *obs.Report `json:"report"`
	Stats    *statsJSON  `json:"stats,omitempty"`
	// Trace is the Perfetto trace-event array (include_trace only); save it
	// to a .json file and open in ui.perfetto.dev.
	Trace json.RawMessage `json:"trace,omitempty"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req ExplainRequest
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

	p := &core.Problem{Layer: &l, Arch: hw}
	var stats *mapper.Stats
	searched := false
	if req.Mapping != nil {
		m, err := req.Mapping.ToMapping()
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if err := m.Validate(&l, hw); err != nil {
			writeError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		p.Mapping = m
	} else {
		obj, err := parseObjective(req.Objective)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		ctx, cancel := s.requestContext(r, req.TimeoutMS)
		defer cancel()
		var cand *mapper.Candidate
		cand, stats, err = mapper.BestCached(ctx, &l, hw, &mapper.Options{
			Spatial:       sp,
			Pow2Splits:    req.Pow2Splits,
			MaxCandidates: req.Budget,
			Objective:     obj,
			BWAware:       true,
			NoReduce:      req.NoSym,
		})
		if err != nil {
			writeError(w, s.errorStatus(r, err), err.Error())
			return
		}
		p.Mapping = cand.Mapping
		searched = true
	}

	// Re-evaluate under this Problem so the diagnostics the report explains
	// were produced by exactly the options the attribution replays.
	res, err := core.Evaluate(p)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	resp := ExplainResponse{
		Layer:    l.Name,
		Arch:     hw.Name,
		Spatial:  p.Mapping.Spatial.String(),
		Temporal: p.Mapping.Temporal.String(),
		Searched: searched,
		Result:   fromResult(res),
		Report:   obs.NewReport(p, res),
		Stats:    fromStats(stats),
	}
	if req.IncludeTrace {
		raw, err := obs.TraceJSON(p, res, obs.TraceOptions{MaxPeriods: req.TracePeriods})
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		resp.Trace = raw
	}
	writeJSON(w, http.StatusOK, resp)
}
