package fabric

// Wire types of the shard protocol (POST /v1/shard, internal/serve). They
// follow the /v1/search request conventions — preset name or inline
// config.Arch plus the loops.Nest string form for spatials — and ship the
// shard's winning TEMPORAL NEST, never its score: the coordinator
// re-materializes every winner through mapper's deterministic evaluate path,
// so a wire encoding can never perturb the (score, seq) merge.

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/loops"
	"repro/internal/mapper"
)

// ShardRequest is the POST /v1/shard body: one planned shard of a Best
// search. The non-shard fields mirror /v1/search so the executing node
// reconstructs the EXACT normalized options the coordinator planned with.
type ShardRequest struct {
	Arch            string           `json:"arch,omitempty"`
	ArchConfig      *config.Arch     `json:"arch_config,omitempty"`
	Spatial         string           `json:"spatial,omitempty"`
	Layer           config.Layer     `json:"layer"`
	Budget          int              `json:"budget,omitempty"`
	MaxSplitsPerDim int              `json:"max_splits_per_dim,omitempty"`
	Objective       string           `json:"objective,omitempty"`
	BWUnaware       bool             `json:"bw_unaware,omitempty"`
	Pow2Splits      bool             `json:"pow2_splits,omitempty"`
	NoSym           bool             `json:"nosym,omitempty"`
	NoPrune         bool             `json:"noprune,omitempty"`
	TimeoutMS       int              `json:"timeout_ms,omitempty"`
	Shard           mapper.ShardSpec `json:"shard"`
}

// SearchOptions rebuilds the mapper options the shard must run under; sp is
// the resolved spatial nest and obj the parsed objective. Zero values
// normalize to the same defaults the coordinator's normalization applied.
func (r *ShardRequest) SearchOptions(sp loops.Nest, obj mapper.Objective) mapper.Options {
	return mapper.Options{
		Spatial:         sp,
		MaxSplitsPerDim: r.MaxSplitsPerDim,
		Pow2Splits:      r.Pow2Splits,
		MaxCandidates:   r.Budget,
		Objective:       obj,
		BWAware:         !r.BWUnaware,
		NoReduce:        r.NoSym,
		NoPrune:         r.NoPrune,
	}
}

// ShardStatsJSON is mapper.Stats on the wire, all fields explicit.
type ShardStatsJSON struct {
	NestsGenerated int `json:"nests_generated"`
	ClassesMerged  int `json:"classes_merged"`
	SubtreesPruned int `json:"subtrees_pruned"`
	Valid          int `json:"valid"`
	Skipped        int `json:"skipped"`
	Pruned         int `json:"pruned"`
}

// ShardResponse is the POST /v1/shard response: the shard's outcome with the
// temporal nest in its string form and the class records as (sig, seq,
// valid) triples (sig crosses as base64 via encoding/json).
type ShardResponse struct {
	Found    bool                `json:"found"`
	Temporal string              `json:"temporal,omitempty"`
	Seq      int64               `json:"seq,omitempty"`
	Stats    ShardStatsJSON      `json:"stats"`
	Classes  []mapper.ShardClass `json:"classes"`
	// Spec echoes the executed spec and OptFP the options fingerprint the
	// node normalized to (string-encoded: uint64 exceeds JSON's exact
	// integer range), so merge-time mismatches name the misconfigured node.
	Spec  mapper.ShardSpec `json:"spec"`
	OptFP uint64           `json:"opt_fp,string,omitempty"`
}

// EncodeOutcome converts a shard outcome to its wire form.
func EncodeOutcome(out *mapper.ShardOutcome) ShardResponse {
	st := out.Stats
	resp := ShardResponse{
		Found: out.Found,
		Stats: ShardStatsJSON{
			NestsGenerated: st.NestsGenerated,
			ClassesMerged:  st.ClassesMerged,
			SubtreesPruned: st.SubtreesPruned,
			Valid:          st.Valid,
			Skipped:        st.Skipped,
			Pruned:         st.Pruned,
		},
		Classes: out.Classes,
		Spec:    out.Spec,
		OptFP:   out.OptFP,
	}
	if out.Found {
		resp.Temporal = out.Temporal.String()
		resp.Seq = out.Seq
	}
	return resp
}

// Outcome converts the wire form back into a mapper.ShardOutcome.
func (r *ShardResponse) Outcome() (*mapper.ShardOutcome, error) {
	out := &mapper.ShardOutcome{
		Found: r.Found,
		Seq:   r.Seq,
		Stats: mapper.Stats{
			NestsGenerated: r.Stats.NestsGenerated,
			ClassesMerged:  r.Stats.ClassesMerged,
			SubtreesPruned: r.Stats.SubtreesPruned,
			Valid:          r.Stats.Valid,
			Skipped:        r.Stats.Skipped,
			Pruned:         r.Stats.Pruned,
		},
		Classes: r.Classes,
		Spec:    r.Spec,
		OptFP:   r.OptFP,
	}
	if r.Found {
		nest, err := loops.ParseNest(r.Temporal)
		if err != nil {
			return nil, fmt.Errorf("fabric: bad shard winner nest %q: %w", r.Temporal, err)
		}
		out.Temporal = nest
	}
	return out, nil
}

// objectiveName renders a mapper.Objective in the API vocabulary.
func objectiveName(o mapper.Objective) (string, error) {
	switch o {
	case mapper.MinLatency:
		return "latency", nil
	case mapper.MinEnergy:
		return "energy", nil
	case mapper.MinEDP:
		return "edp", nil
	}
	return "", fmt.Errorf("fabric: objective %d has no wire name", o)
}
