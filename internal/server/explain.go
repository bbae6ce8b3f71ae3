package server

import (
	"net/http"
	"time"

	"xmatch/internal/core"
	"xmatch/internal/delta"
	"xmatch/internal/index"
	"xmatch/internal/obs"
)

// Query EXPLAIN: a /v1/query carrying explain (body field or ?explain=1)
// gets its response annotated with the request's trace — the same spans
// the slow-query log retains — plus the size of the evaluation plan the
// query ran and the index matcher's internal counters,
// per shard, measured as the delta each shard's counter chain moved while
// the request evaluated. The counters are shared by every request on the
// same index, so under concurrent traffic the deltas are best-effort
// attribution (they may include a neighbor's work); on a quiet server
// they are exact — and, a plan costing one matcher call per leaf unit per
// shard, the same for every worker count.

// ExplainShard is one shard's matcher-internals row of an EXPLAIN block.
type ExplainShard struct {
	Shard int `json:"shard"`
	// Epoch is the snapshot epoch the request pinned for this shard.
	Epoch uint64 `json:"epoch"`
	// Counters are the matcher counters the evaluation moved: per-pass
	// survivor counts, galloping vs linear merge choices, decoded postings
	// blocks, memo hits — see index.CountersSnapshot.
	Counters index.CountersSnapshot `json:"counters"`
	// Profiles are the shard's observed per-path selectivity profiles —
	// cumulative since the index was built (not this request's delta:
	// profiles are how the paths have behaved, which is what a planner
	// reading an EXPLAIN wants). Bounded to the hottest paths by
	// candidate volume.
	Profiles []index.PathProfile `json:"profiles,omitempty"`
}

// explainProfileCap bounds the per-shard profile rows an EXPLAIN carries.
const explainProfileCap = 16

// ExplainData is the explain block of a QueryResponse.
type ExplainData struct {
	Trace obs.TraceData `json:"trace"`
	// Plan is the size of the compiled evaluation plan (core.Plan) the
	// request ran: relevant mappings, matcher calls (leaf units, of which
	// c-block units) and structural joins per shard, and the distinct
	// result classes the mappings share. Basic mode's plan has no c-blocks:
	// one leaf unit per distinct whole-query rewrite.
	Plan   *core.PlanStats `json:"plan,omitempty"`
	Shards []ExplainShard  `json:"shards"`
}

// shardCounters snapshots every pinned shard's matcher counters — the
// "before" edge of an EXPLAIN delta.
func shardCounters(snaps []*delta.Snapshot) []index.CountersSnapshot {
	out := make([]index.CountersSnapshot, len(snaps))
	for i, sn := range snaps {
		out[i] = sn.Index.Counters()
	}
	return out
}

// buildExplain closes the counter deltas over the pinned snapshots and
// packages them with the plan's size and the trace so far.
func buildExplain(tr *obs.Trace, plan *core.PlanStats, snaps []*delta.Snapshot, before []index.CountersSnapshot) *ExplainData {
	ex := &ExplainData{Trace: tr.Data(time.Since(tr.Start())), Plan: plan}
	for i, sn := range snaps {
		profiles := sn.Index.PathProfiles()
		if len(profiles) > explainProfileCap {
			profiles = profiles[:explainProfileCap]
		}
		ex.Shards = append(ex.Shards, ExplainShard{
			Shard:    i,
			Epoch:    sn.Epoch,
			Counters: sn.Index.Counters().Sub(before[i]),
			Profiles: profiles,
		})
	}
	return ex
}

// handleTraces serves the slow-query log: the retained traces (newest
// first) plus the sampling accounting, as JSON.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	finished, sampled := s.traces.Counts()
	writeJSON(w, http.StatusOK, map[string]any{
		"thresholdMs": float64(s.traces.Threshold().Microseconds()) / 1e3,
		"finished":    finished,
		"sampled":     sampled,
		"traces":      s.traces.Snapshot(),
	})
}
