package server

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"xmatch/internal/engine"
	"xmatch/internal/replica"
	"xmatch/internal/store"
)

// Replication endpoints. A primary serves three read-side endpoints —
// the manifest a follower builds its catalog from, per-shard edit-log
// streams, and on-demand checkpoint blobs — plus the admin checkpoint
// operation that compacts a shard's log. A follower (NewFollower) is a
// regular Server in read-only mode whose state advances only through the
// replica.Follower sync engine.

// handleReplicateStream ships one shard's retained records above the
// follower's epoch. The 200 body is a literal edit-log blob based at the
// requested epoch — the exact framing the durable log uses on disk — so
// primary, follower, and loader share one codec; the X-Xmatch-Epoch
// header carries the shard's current epoch so the follower knows when it
// has caught up. 409 with the checkpoint epoch means the requested
// history has been compacted away and the follower must bootstrap.
func (s *Server) handleReplicateStream(p *request) {
	var req replica.StreamRequest
	err := s.decodeBody(p.w, p.r.Body, &req)
	if !p.open(err, nil, target{dataset: req.Dataset, shard: req.Shard, perShard: true}, stageStream, "") {
		return
	}
	w, sh := p.w, p.shard
	stream := sh.Log.StreamFrom(req.From)
	if stream.NeedCheckpoint {
		s.stats.errors.Add(1)
		writeJSON(w, http.StatusConflict, map[string]any{
			"error":           fmt.Sprintf("epoch %d predates the retained log (checkpoint at %d): bootstrap from the checkpoint", req.From, stream.CheckpointEpoch),
			"checkpointEpoch": stream.CheckpointEpoch,
		})
		return
	}
	w.Header().Set(replica.EpochHeader, strconv.FormatUint(sh.Live.Snapshot().Epoch, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	if err := store.CreateEditLogAt(w, req.From); err != nil {
		return // connection-level failure; the follower re-syncs
	}
	for _, frame := range stream.Frames {
		if _, err := w.Write(frame); err != nil {
			return
		}
	}
}

// handleReplicateCheckpoint serves a checkpoint blob for one shard,
// synthesized from the shard's current snapshot — always available, even
// for volatile shards that never wrote a checkpoint file, and always the
// freshest state, which minimizes the replay after bootstrap.
func (s *Server) handleReplicateCheckpoint(p *request) {
	query := p.r.URL.Query()
	shard, err := 0, error(nil)
	if v := query.Get("shard"); v != "" {
		if shard, err = strconv.Atoi(v); err != nil {
			err = fmt.Errorf("bad shard %q", v)
		}
	}
	if !p.open(nil, err, target{dataset: query.Get("dataset"), shard: shard, perShard: true}, stageStream, "") {
		return
	}
	w, sh := p.w, p.shard
	snap := sh.Live.Snapshot()
	w.Header().Set(replica.EpochHeader, strconv.FormatUint(snap.Epoch, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_ = store.SaveCheckpoint(w, snap.Doc, snap.Epoch)
}

// handleReplicateManifest serves the manifest this server's catalog was
// built from, so a follower can build the same datasets locally.
func (s *Server) handleReplicateManifest(p *request) {
	p.next(stageStream, "")
	if s.opts.Manifest == nil {
		s.fail(p.w, http.StatusNotFound, "replication manifest not configured on this server")
		return
	}
	man, err := s.opts.Manifest()
	if err != nil {
		s.fail(p.w, http.StatusInternalServerError, "manifest: %v", err)
		return
	}
	p.w.Header().Set("Content-Type", "application/octet-stream")
	p.w.WriteHeader(http.StatusOK)
	_ = store.SaveCatalog(p.w, man)
}

// CheckpointRequest is the body of POST /v1/admin/checkpoint: compact
// one dataset's replication logs.
type CheckpointRequest struct {
	Dataset string `json:"dataset"`
}

// CheckpointShardResult is one shard's row of a CheckpointResponse.
type CheckpointShardResult struct {
	Shard int `json:"shard"`
	// Epoch is the checkpoint's epoch; followers further behind will
	// bootstrap from it.
	Epoch uint64 `json:"epoch"`
	// FreedBytes is the retained-log volume the checkpoint compacted.
	FreedBytes int64 `json:"freedBytes"`
	// Durable reports a checkpoint blob written to disk (false for a
	// volatile dataset, where the checkpoint only trims retention).
	Durable bool `json:"durable"`
}

// CheckpointResponse is the body of a successful POST /v1/admin/checkpoint.
type CheckpointResponse struct {
	Dataset string                  `json:"dataset"`
	Shards  []CheckpointShardResult `json:"shards"`
}

// handleCheckpoint persists every shard of one dataset at its current
// epoch and truncates the shipped logs. It runs on a write route, under the
// reload read lock: a concurrent reload would otherwise rebuild the
// catalog from files this operation is mid-way through replacing.
func (s *Server) handleCheckpoint(p *request) {
	var req CheckpointRequest
	err := s.decodeBody(p.w, p.r.Body, &req)
	if !p.open(err, nil, target{dataset: req.Dataset}, stageCheckpoint, "") {
		return
	}
	resp := CheckpointResponse{Dataset: req.Dataset}
	for i, sh := range p.ds.Shards() {
		epoch, freed, err := p.ds.CheckpointShard(i)
		if err != nil {
			s.fail(p.w, http.StatusInternalServerError, "checkpointing %s shard %d: %v", req.Dataset, i, err)
			return
		}
		resp.Shards = append(resp.Shards, CheckpointShardResult{
			Shard:      i,
			Epoch:      epoch,
			FreedBytes: freed,
			Durable:    sh.Log.Durable(),
		})
	}
	p.next(stageWrite, "")
	writeJSON(p.w, http.StatusOK, resp)
}

// FollowerOptions configure NewFollower.
type FollowerOptions struct {
	// Server options for the replica's own HTTP layer; ReadOnly is forced
	// on.
	Server Options
	// Engine options for the locally rebuilt datasets.
	Engine engine.Options
	// HTTP overrides the client used to reach the primary (nil = default
	// with a 30s timeout).
	HTTP *http.Client
	// Fault, when set, is consulted before every primary RPC — the
	// replication fault-injection hook (the chaos suite drives it): a returned
	// error fails the call before it touches the network, exercising the
	// follower's retry/backoff/breaker path deterministically.
	Fault func(op string) error
	// Breaker tunes the follower's per-shard sync circuit breakers; the
	// zero value gets the replica package defaults.
	Breaker replica.BreakerConfig
}

// NewFollower builds a read replica of the primary at the given base
// URL: it fetches the primary's manifest, rebuilds the same datasets
// locally (volatile — durability lives on the primary), performs an
// initial sync, and returns the serving replica plus its sync engine.
// The caller drives ongoing replication, typically follower.Run in a
// goroutine; queries carrying min_epoch additionally nudge a sync
// inline. Only built-in manifest entries replicate — a blob-backed entry
// would need the primary's files shipped, which log shipping does not
// do.
func NewFollower(primary string, fopts FollowerOptions) (*Server, *replica.Follower, error) {
	client := &replica.Client{Base: primary, HTTP: fopts.HTTP, Fault: fopts.Fault}
	loader := func() (*Catalog, error) {
		man, err := client.Manifest()
		if err != nil {
			return nil, err
		}
		for i := range man.Entries {
			e := &man.Entries[i]
			if e.Dataset == "" {
				return nil, fmt.Errorf("server: follow mode requires built-in catalog entries; %q is blob-backed", e.Name)
			}
			// The replica regenerates the pristine dataset and replays the
			// primary's stream over it; it keeps no durable log of its own.
			e.EditLogPath = ""
		}
		return BuildCatalog(man, ".", fopts.Engine)
	}
	sopts := fopts.Server
	sopts.ReadOnly = true
	srv, err := New(loader, sopts)
	if err != nil {
		return nil, nil, err
	}
	f := replica.NewFollower(client)
	f.Logger = srv.logger
	f.BreakerConfig = fopts.Breaker
	// Replays land as structured log lines (debug — they are routine) with
	// enough detail to correlate against the primary's mutate logs; the
	// replay latency histogram lives in the follower itself and reaches
	// /metricsz through its collector.
	f.Observe = func(dataset string, shard int, records int, took time.Duration) {
		srv.logger.Debug("replica replay",
			"dataset", dataset,
			"shard", shard,
			"records", records,
			"ms", float64(took.Microseconds())/1e3)
	}
	srv.follower = f
	srv.wireFollower(srv.Catalog())
	if err := f.SyncAll(); err != nil {
		return nil, nil, fmt.Errorf("server: initial sync from %s: %w", primary, err)
	}
	return srv, f, nil
}

// wireFollower (re)registers every dataset's shards as the follower's
// sync targets — at construction and after each reload.
func (s *Server) wireFollower(cat *Catalog) {
	for _, d := range cat.Datasets() {
		ts := make([]*replica.Target, d.NumShards())
		for i, sh := range d.Shards() {
			ts[i] = &replica.Target{Handle: sh.Live, Log: sh.Log}
		}
		s.follower.SetTargets(d.Name, ts)
	}
}
