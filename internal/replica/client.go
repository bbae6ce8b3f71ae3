package replica

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"xmatch/internal/store"
)

// Replication endpoints a primary serves (mounted by internal/server)
// and the header that carries the primary's current shard epoch on
// stream and checkpoint responses.
const (
	StreamEndpoint     = "/v1/replicate/stream"
	CheckpointEndpoint = "/v1/replicate/checkpoint"
	ManifestEndpoint   = "/v1/replicate/manifest"
	EpochHeader        = "X-Xmatch-Epoch"
)

// StreamRequest is the wire form of one stream pull: ship the records of
// one shard with epochs above From. From is the follower's current epoch
// for that shard.
type StreamRequest struct {
	Dataset string `json:"dataset"`
	Shard   int    `json:"shard"`
	From    uint64 `json:"from"`
}

// streamConflict is the 409 body when From predates the retained log.
type streamConflict struct {
	Error           string `json:"error"`
	CheckpointEpoch uint64 `json:"checkpointEpoch"`
}

// StreamResult is one parsed stream response.
type StreamResult struct {
	// Records are the shipped records in epoch order (From+1, From+2, …);
	// empty when the follower was already caught up.
	Records []store.EditRecord
	// PrimaryEpoch is the primary shard's epoch when the response was
	// served; the follower is caught up once its epoch reaches it.
	PrimaryEpoch uint64
	// Bytes is the wire size of the shipped log payload.
	Bytes int64
	// NeedCheckpoint reports that the requested history has been
	// compacted away; bootstrap from the checkpoint at CheckpointEpoch.
	NeedCheckpoint  bool
	CheckpointEpoch uint64
}

// Client pulls replication state from a primary xmatchd.
type Client struct {
	// Base is the primary's base URL (e.g. http://host:8777).
	Base string
	// HTTP is the underlying client; nil uses a default with a 30s
	// timeout.
	HTTP *http.Client
	// Fault, when non-nil, is consulted before every HTTP operation with
	// its name ("stream", "checkpoint", "manifest"); a returned error is
	// surfaced as that operation's failure without touching the network —
	// the chaos suites' injection point for partition and flake faults.
	Fault func(op string) error
}

// fault applies the injection hook for one operation.
func (c *Client) fault(op string) error {
	if c.Fault == nil {
		return nil
	}
	return c.Fault(op)
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// fail renders a non-2xx response as an error, surfacing the body's
// error field (or raw text) for diagnosis.
func fail(resp *http.Response, what string) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	msg := string(bytes.TrimSpace(body))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	return fmt.Errorf("replica: %s: primary returned %d: %s", what, resp.StatusCode, msg)
}

func parseEpochHeader(resp *http.Response) (uint64, error) {
	h := resp.Header.Get(EpochHeader)
	if h == "" {
		return 0, fmt.Errorf("replica: primary response missing %s header", EpochHeader)
	}
	return strconv.ParseUint(h, 10, 64)
}

// Stream pulls the records of one shard with epochs above from. The
// response body is a literal edit-log blob based at from — the same
// format the durable log uses on disk — so both sides share one codec.
func (c *Client) Stream(dataset string, shard int, from uint64) (*StreamResult, error) {
	if err := c.fault("stream"); err != nil {
		return nil, fmt.Errorf("replica: stream %s/%d: %w", dataset, shard, err)
	}
	reqBody, err := json.Marshal(StreamRequest{Dataset: dataset, Shard: shard, From: from})
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Post(c.Base+StreamEndpoint, "application/json", bytes.NewReader(reqBody))
	if err != nil {
		return nil, fmt.Errorf("replica: stream %s/%d: %w", dataset, shard, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		var conflict streamConflict
		if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&conflict); err != nil {
			return nil, fmt.Errorf("replica: stream %s/%d: undecodable 409: %w", dataset, shard, err)
		}
		return &StreamResult{NeedCheckpoint: true, CheckpointEpoch: conflict.CheckpointEpoch}, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fail(resp, fmt.Sprintf("stream %s/%d", dataset, shard))
	}
	epoch, err := parseEpochHeader(resp)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("replica: stream %s/%d: reading body: %w", dataset, shard, err)
	}
	lg, err := store.LoadEditLog(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("replica: stream %s/%d: %w", dataset, shard, err)
	}
	if lg.Torn {
		return nil, fmt.Errorf("replica: stream %s/%d: truncated log payload", dataset, shard)
	}
	if lg.Base != from {
		return nil, fmt.Errorf("replica: stream %s/%d: asked from epoch %d, got log based at %d", dataset, shard, from, lg.Base)
	}
	// An empty suffix still carries the ~100-byte edit-log envelope;
	// reporting that as pending volume would make an idle, caught-up
	// follower look permanently behind on xmatch_replica_pending_bytes.
	wire := int64(len(body))
	if len(lg.Records) == 0 {
		wire = 0
	}
	return &StreamResult{
		Records:      lg.Records,
		PrimaryEpoch: epoch,
		Bytes:        wire,
	}, nil
}

// Checkpoint fetches a checkpoint blob for one shard — the primary
// synthesizes it from its current snapshot — and restores it: document
// reassembled with its exact numbering, index verified against it, epoch
// stamped.
func (c *Client) Checkpoint(dataset string, shard int) (*store.Checkpoint, error) {
	if err := c.fault("checkpoint"); err != nil {
		return nil, fmt.Errorf("replica: checkpoint %s/%d: %w", dataset, shard, err)
	}
	url := fmt.Sprintf("%s%s?dataset=%s&shard=%d", c.Base, CheckpointEndpoint, dataset, shard)
	resp, err := c.http().Get(url)
	if err != nil {
		return nil, fmt.Errorf("replica: checkpoint %s/%d: %w", dataset, shard, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fail(resp, fmt.Sprintf("checkpoint %s/%d", dataset, shard))
	}
	ck, err := store.LoadCheckpoint(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("replica: checkpoint %s/%d: %w", dataset, shard, err)
	}
	return ck, nil
}

// Manifest fetches the primary's catalog manifest, from which a follower
// builds the same datasets locally before replaying the primary's edits
// on top.
func (c *Client) Manifest() (*store.Catalog, error) {
	if err := c.fault("manifest"); err != nil {
		return nil, fmt.Errorf("replica: manifest: %w", err)
	}
	resp, err := c.http().Get(c.Base + ManifestEndpoint)
	if err != nil {
		return nil, fmt.Errorf("replica: manifest: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fail(resp, "manifest")
	}
	man, err := store.LoadCatalog(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("replica: manifest: %w", err)
	}
	return man, nil
}
