package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"xmatch/internal/delta"
	"xmatch/internal/obs"
)

// DatasetInfo is one row of GET /v1/datasets.
type DatasetInfo struct {
	Name     string `json:"name"`
	Source   string `json:"source"`
	Target   string `json:"target"`
	Mappings int    `json:"mappings"`
	DocNodes int    `json:"docNodes"`
	// Epoch is the collection's highest per-shard mutation epoch
	// (0 = every shard pristine).
	Epoch uint64 `json:"epoch"`
	// Shards is the number of member documents (1 = classic single
	// document); DocNodes totals across them.
	Shards int `json:"shards"`
	Blocks int `json:"blocks"`
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	cat := s.Catalog()
	infos := make([]DatasetInfo, 0, len(cat.names))
	for _, d := range cat.Datasets() {
		snaps, nodes := d.Snapshots(), 0
		for _, snap := range snaps {
			nodes += snap.Doc.Len()
		}
		infos = append(infos, DatasetInfo{
			Name:     d.Name,
			Source:   d.Set.Source.Name,
			Target:   d.Set.Target.Name,
			Mappings: d.Set.Len(),
			DocNodes: nodes,
			Epoch:    snapsEpoch(snaps),
			Shards:   d.NumShards(),
			Blocks:   d.Tree.Stats().NumBlocks,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": infos})
}

// MutateRequest is the body of POST /v1/admin/mutate: one edit batch for
// one dataset, applied atomically in order.
type MutateRequest struct {
	Dataset string `json:"dataset"`
	// Shard selects the member document of a sharded collection the batch
	// applies to; 0 (the default) is the single document of a classic
	// dataset.
	Shard int          `json:"shard,omitempty"`
	Edits []delta.Edit `json:"edits"`
}

// MutateResponse is the body of a successful POST /v1/admin/mutate.
type MutateResponse struct {
	Dataset string `json:"dataset"`
	// Shard echoes the member document the batch landed on.
	Shard int `json:"shard,omitempty"`
	// Epoch is the shard's document epoch the batch produced; queries
	// arriving after this response see it.
	Epoch    uint64 `json:"epoch"`
	Applied  int    `json:"applied"`
	DocNodes int    `json:"docNodes"`
	// Persisted reports whether the batch was appended to the dataset's
	// edit log (false for datasets without one: the mutation is
	// in-memory only and will not survive a reload).
	Persisted bool `json:"persisted"`
}

// readOnly rejects a state-changing request on a read replica. Returns
// true when the request was rejected.
func (s *Server) readOnly(w http.ResponseWriter) bool {
	if !s.opts.ReadOnly {
		return false
	}
	primary := ""
	if s.follower != nil {
		primary = " (follower of " + s.follower.Primary() + ")"
	}
	s.fail(w, http.StatusForbidden, "read-only replica%s: state changes only through replication", primary)
	return true
}

// validate is the mutation's validation step.
func (m *MutateRequest) validate(maxEdits int) error {
	switch {
	case m.Shard < 0:
		return fmt.Errorf("negative shard %d", m.Shard)
	case len(m.Edits) == 0:
		return errors.New("mutation has no edits")
	case len(m.Edits) > maxEdits:
		return fmt.Errorf("mutation has %d edits, limit %d", len(m.Edits), maxEdits)
	}
	return delta.Validate(m.Edits)
}

func (s *Server) handleMutate(p *request) {
	req, err := s.decodeMutate(p.w, p.r)
	if !p.open(err, req.validate(maxBatchEdits), target{dataset: req.Dataset, shard: req.Shard, perShard: true}, stageApply, "shard="+strconv.Itoa(req.Shard)+" edits="+strconv.Itoa(len(req.Edits))) {
		return
	}
	// Every applied batch goes through the shard's replication log — the
	// durable edit-log append (fsynced before the ack) when the entry
	// persists mutations, and the in-memory retention followers stream
	// from either way. The handle serializes writers per dataset and
	// orders log appends exactly like the batches they record. A log
	// retired by a concurrent reload refuses the append, failing the
	// mutate instead of writing to a file the new catalog generation now
	// owns.
	snap, err := p.shard.Live.ApplyTraced(p.tr, req.Edits, p.shard.Log.Append)
	if err != nil {
		var ee *delta.EditError
		if errors.As(err, &ee) {
			s.fail(p.w, http.StatusBadRequest, "%v", err)
		} else {
			s.fail(p.w, http.StatusInternalServerError, "mutation not applied: %v", err)
		}
		return
	}
	s.stats.edits.Add(uint64(len(req.Edits)))
	p.next(stageWrite, "")
	writeJSON(p.w, http.StatusOK, MutateResponse{
		Dataset:   req.Dataset,
		Shard:     req.Shard,
		Epoch:     snap.Epoch,
		Applied:   len(req.Edits),
		DocNodes:  snap.Doc.Len(),
		Persisted: p.shard.Log.Durable(),
	})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.readOnly(w) {
		return
	}
	names, err := s.Reload()
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "reload failed (previous catalog still serving): %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": names})
}

// handleReadyz answers whether this instance should receive traffic —
// distinct from /healthz liveness: a draining server is perfectly alive,
// it just wants the load balancer to look elsewhere while in-flight
// requests finish.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":        "ok",
		"datasets":      len(s.Catalog().names),
		"uptimeSeconds": time.Since(s.stats.start).Seconds(),
	}
	// When an SLO is configured, report how the error budget is burning
	// over the sliding window. Burning faster than it accrues (rate > 1)
	// flips the status to "degraded" but keeps the 200: latency pressure
	// is an alert for operators, not a liveness failure — ejecting the
	// replica from rotation would convert slow answers into no answers.
	if s.opts.SLOTarget > 0 {
		win := s.stats.query.lat.Window()
		slo := obs.SLO{Target: s.opts.SLOTarget, Objective: s.opts.SLOObjective}
		bad, burn := slo.Burn(win)
		body["slo"] = map[string]any{
			"targetMs":       float64(s.opts.SLOTarget.Microseconds()) / 1e3,
			"objective":      s.opts.SLOObjective,
			"windowSeconds":  s.opts.SLOWindow.Seconds(),
			"windowRequests": win.Count,
			"badFraction":    bad,
			"burnRate":       burn,
			"p50Ms":          win.Quantile(0.50),
			"p95Ms":          win.Quantile(0.95),
			"p99Ms":          win.Quantile(0.99),
		}
		if burn > 1 {
			body["status"] = "degraded"
		}
	}
	// A follower that has fallen too far behind the primary is alive but
	// not healthy: it answers queries from stale state and min_epoch
	// queries start timing out. Report degraded (503 keeps load balancers
	// honest) with the worst shard's lag detail.
	if s.follower != nil && s.opts.MaxLagEpochs > 0 {
		if dsName, shard, lag, ok := s.follower.MaxLag(); ok && lag.EpochsBehind > uint64(s.opts.MaxLagEpochs) {
			body["status"] = "degraded"
			detail := map[string]any{
				"dataset":      dsName,
				"shard":        shard,
				"epochsBehind": lag.EpochsBehind,
				"primaryEpoch": lag.PrimaryEpoch,
				"localEpoch":   lag.LocalEpoch,
				"maxLagEpochs": s.opts.MaxLagEpochs,
			}
			if lag.LastError != "" {
				detail["lastError"] = lag.LastError
			}
			body["lag"] = detail
			writeJSON(w, http.StatusServiceUnavailable, body)
			return
		}
	}
	writeJSON(w, http.StatusOK, body)
}
