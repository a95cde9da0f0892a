package serve

// The fleet endpoints. POST /v1/shard executes one planned shard of a
// sharded Best search on behalf of a remote coordinator (internal/fabric);
// the request carries the exact normalized options plus the shard's prefix
// range and walk-state handoff, so the outcome merges bit-identically into
// the coordinator's result no matter which node ran it (DESIGN.md §13).
// POST /v1/memo/{get,put} serve the configured memo.Store to memo.Remote
// clients, letting a fleet share warm whole-search results; both sides are
// version-tagged so nodes running different model arithmetic read each other
// as misses instead of mixing results.

import (
	"fmt"
	"net/http"

	"repro/internal/fabric"
	"repro/internal/mapper"
	"repro/internal/memo"
	"repro/internal/otrace"
)

func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	var req fabric.ShardRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	l, err := req.Layer.ToLayer()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec := archSpec{Arch: req.Arch, ArchConfig: req.ArchConfig, Spatial: req.Spatial}
	hw, sp, err := spec.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	obj, err := parseObjective(req.Objective)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	o := req.SearchOptions(sp, obj)
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	// The walk span's duration is what the coordinator's critical-path
	// attribution charges to "walk" inside this shard's RPC window; the
	// position attrs tie it back to the plan range it covered.
	wctx, wsp := otrace.StartSpanKeyed(ctx, "shard.walk", otrace.CatWalk,
		fmt.Sprintf("%d", req.Shard.WalkedBefore))
	wsp.SetAttr("pos_lo", fmt.Sprintf("%d", req.Shard.WalkedBefore))
	out, err := mapper.BestShard(wctx, &l, hw, &o, req.Shard)
	if err != nil {
		wsp.SetAttr("outcome", "error")
		wsp.End()
		writeError(w, s.errorStatus(r, err), err.Error())
		return
	}
	wsp.End()
	s.met.fabricShards.Add(1)
	noteFrom(r.Context()).addShards(1)
	writeJSON(w, http.StatusOK, fabric.EncodeOutcome(out))
}

func (s *Server) handleMemoGet(w http.ResponseWriter, r *http.Request) {
	var req memo.WireGet
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Version != s.cfg.MemoVersion || len(req.Enc) == 0 {
		writeError(w, http.StatusNotFound, "memo miss (version or key)")
		return
	}
	blob, ok := s.cfg.MemoStore.Get(r.Context(), memo.KeyOf(req.Enc))
	if !ok || len(blob) == 0 {
		writeError(w, http.StatusNotFound, "memo miss")
		return
	}
	writeJSON(w, http.StatusOK, memo.WireBlob{Blob: blob})
}

func (s *Server) handleMemoPut(w http.ResponseWriter, r *http.Request) {
	var req memo.WirePut
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Version skew and empty payloads are silently dropped, not errors: the
	// store contract is best-effort, and a mixed-version fleet is a supported
	// (if transient) state during rollouts.
	if req.Version == s.cfg.MemoVersion && len(req.Enc) > 0 && len(req.Blob) > 0 {
		s.cfg.MemoStore.Put(r.Context(), memo.KeyOf(req.Enc), req.Blob)
	}
	w.WriteHeader(http.StatusNoContent)
}
