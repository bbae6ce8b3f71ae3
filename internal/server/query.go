package server

import (
	"cmp"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"xmatch/internal/core"
	"xmatch/internal/engine"
	"xmatch/internal/index"
	"xmatch/internal/store"
)

// Wire types of the query API. The server decodes requests into them; the
// query and batch responses it renders itself (render.go), byte-identical
// to encoding/json's rendering of QueryResponse / BatchResponse, which are
// what clients decode into and what the tests compare the rendered bytes
// against.

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	Dataset string `json:"dataset"`
	Pattern string `json:"pattern"`
	// Mode selects the evaluator: "compact" (block tree; the default),
	// "basic" (Algorithm 3 over all mappings), or "topk" (requires K > 0).
	Mode string `json:"mode,omitempty"`
	K    int    `json:"k,omitempty"`
	// MinEpoch demands read-your-writes: the query waits (bounded) until
	// the dataset's epoch reaches MinEpoch — on a follower, until
	// replication has caught up with the write that produced the token —
	// and answers 412 if it cannot. 0 reads whatever is current.
	MinEpoch uint64 `json:"min_epoch,omitempty"`
	// Explain asks for the response's Explain block: the request's trace
	// plus per-shard index-matcher counters. ?explain=1 on the URL does
	// the same.
	Explain bool `json:"explain,omitempty"`
	// TimeoutMs tightens the server's request deadline for this query;
	// values beyond the server-wide bound are capped to it. 0 uses the
	// server default.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// QueryResponse is the body of a successful POST /v1/query.
type QueryResponse struct {
	Dataset string `json:"dataset"`
	Pattern string `json:"pattern"`
	Mode    string `json:"mode"`
	K       int    `json:"k,omitempty"`
	// Epoch is the consistency token of the state the query saw: the
	// highest per-shard epoch among the snapshots it pinned. Hand it to a
	// later query's min_epoch (on any replica) to read at-or-after this
	// state.
	Epoch   uint64            `json:"epoch"`
	Results []core.WireResult `json:"results"`
	Answers []core.WireAnswer `json:"answers"`
	// Explain is present when the request asked for it; see ExplainData.
	Explain *ExplainData `json:"explain,omitempty"`
}

// BatchQuery is one query of a POST /v1/batch body.
type BatchQuery struct {
	Pattern string `json:"pattern"`
	// K > 0 evaluates the top-k PTQ for this query; 0 evaluates the full
	// compact PTQ.
	K int `json:"k,omitempty"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Dataset string       `json:"dataset"`
	Queries []BatchQuery `json:"queries"`
	// MinEpoch demands read-your-writes for the whole batch; see
	// QueryRequest.MinEpoch.
	MinEpoch uint64 `json:"min_epoch,omitempty"`
	// TimeoutMs tightens the server's request deadline for this batch;
	// see QueryRequest.TimeoutMs.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// BatchAnswer is one per-query answer within a BatchResponse; Error is set
// (and Results/Answers are null) when that query failed. Results and
// Answers carry no omitempty so an empty answer encodes as [] exactly like
// a /v1/query response — the wire form of a result set never depends on
// which endpoint produced it.
type BatchAnswer struct {
	Pattern string            `json:"pattern"`
	K       int               `json:"k,omitempty"`
	Results []core.WireResult `json:"results"`
	Answers []core.WireAnswer `json:"answers"`
	Error   string            `json:"error,omitempty"`
}

// BatchResponse is the body of a successful POST /v1/batch; Responses
// preserve request order.
type BatchResponse struct {
	Dataset string `json:"dataset"`
	// Epoch is the consistency token of the pinned state; see
	// QueryResponse.Epoch.
	Epoch     uint64        `json:"epoch"`
	Responses []BatchAnswer `json:"responses"`
}

// validate is the query's validation step; it returns the mode,
// defaulted. A refused request pays no parse/resolve and churns no cache.
func (q *QueryRequest) validate() (string, error) {
	switch mode := cmp.Or(q.Mode, "compact"); {
	case mode != "basic" && mode != "compact" && mode != "topk":
		return "", fmt.Errorf("unknown mode %q (want basic, compact, or topk)", mode)
	case mode == "topk" && q.K <= 0:
		return "", errors.New("mode topk requires k > 0")
	case q.K < 0:
		return "", fmt.Errorf("negative k %d", q.K)
	default:
		return mode, nil
	}
}

// validate is the batch's validation step.
func (b *BatchRequest) validate(maxQueries int) error {
	switch {
	case len(b.Queries) == 0:
		return errors.New("batch has no queries")
	case len(b.Queries) > maxQueries:
		return fmt.Errorf("batch has %d queries, limit %d", len(b.Queries), maxQueries)
	}
	for i, bq := range b.Queries {
		if bq.K < 0 {
			return fmt.Errorf("query %d: negative k %d", i, bq.K)
		}
	}
	return nil
}

func (s *Server) handleQuery(p *request) {
	req, err := s.decodeQuery(p.w, p.r)
	mode, invalid := req.validate()
	if !p.open(err, invalid, target{dataset: req.Dataset, minEpoch: req.MinEpoch, timeoutMs: req.TimeoutMs}, stagePrepare, "cached=false") {
		return
	}
	// RawQuery is empty on nearly every request; only a non-empty one is parsed.
	explain := req.Explain || (p.r.URL.RawQuery != "" && p.r.URL.Query().Get("explain") == "1")
	ds, snaps, eng, sh := p.ds, p.snaps, &p.eng, p.scatter
	q, cached, err := eng.PrepareCached(req.Pattern, ds.Set)
	if cached {
		p.detail = "cached=true"
	}
	if err != nil {
		s.fail(p.w, http.StatusBadRequest, "%v", err)
		return
	}
	var before []index.CountersSnapshot
	if explain {
		before = shardCounters(snaps)
	}
	p.next(stageEvaluate, mode)
	var results []core.Result
	switch mode {
	case "basic":
		results = eng.EvaluateBasicAcross(q, ds.Set, sh)
	case "compact":
		results = eng.EvaluateAcross(q, ds.Set, sh, ds.Tree)
	default: // topk
		results = eng.EvaluateTopKAcross(q, ds.Set, sh, ds.Tree, req.K)
	}
	// The results are this request's alone and nothing below keeps them
	// past the body, so their array goes back for the next evaluation.
	defer core.ReleaseResults(results)
	// A fired deadline means the evaluators returned partial results;
	// they are discarded, never served.
	if !p.next(stageAggregate, "") {
		return
	}
	answers := p.answers.Leaf(q, results)
	epoch := snapsEpoch(snaps)
	p.next(stageEncode, "")
	var payload payloadSpans
	p.body, payload = appendQueryBody(p.body[:0], req.Dataset, req.Pattern, mode, req.K, epoch, ds.heads, results, answers)
	// The body is rendered whole before anything is accounted or written:
	// the write stage's boundary is the latency the workload table and the
	// capture record, encode included; the explain block shows its span.
	p.next(stageWrite, "")
	if explain {
		p.body = append(p.body, `,"explain":`...)
		tree := ds.Tree
		if mode == "basic" {
			tree = nil // Algorithm 3 is the plan over no c-blocks
		}
		plan := q.Plan(ds.Set, tree).Stats()
		p.body = appendJSON(p.body, buildExplain(p.tr, &plan, snaps, before))
	}
	p.body = append(p.body, '}', '\n')
	// Workload accounting happens on the response the client is about to
	// receive: the fingerprint keys the prepared query's canonical pattern
	// (not the request text), and the capture's digest covers the exact
	// wire results and answers, so a replay diffs against what was served.
	// The row and the record carry the k the fingerprint hashed — the
	// request's only in topk mode — so every request sharing a fingerprint
	// files the same (mode, k); the response above echoes the request's.
	k := engine.FingerprintK(mode, req.K)
	fp := engine.FingerprintPattern(req.Dataset, q.Canonical, mode, k)
	latency := p.began.Sub(p.tr.Start())
	s.workload.record(fp, req.Dataset, q.Canonical, mode, k, cached, len(results), epoch, latency)
	if s.capture.sample() {
		// The digest is hashed from the rendered bytes before the log takes
		// its mutex; a sampled-out request never pays for it.
		s.capture.record(store.WorkloadRecord{
			Fingerprint: fp,
			Dataset:     req.Dataset,
			Pattern:     q.Canonical,
			Mode:        mode,
			K:           k,
			Epoch:       epoch,
			LatencyUs:   latency.Microseconds(),
			Digest:      digestPayload(p.body, payload),
		})
	}
	writeBody(p.w, p.body)
}

func (s *Server) handleBatch(p *request) {
	var req BatchRequest
	err := s.decodeBody(p.w, p.r.Body, &req)
	if !p.open(err, req.validate(maxBatchQueries), target{dataset: req.Dataset, minEpoch: req.MinEpoch, timeoutMs: req.TimeoutMs}, stageEvaluate, "queries="+strconv.Itoa(len(req.Queries))) {
		return
	}
	// The batch's queries are answered over one consistent per-shard
	// document state: the request's pins.
	engReqs := make([]engine.Request, len(req.Queries))
	for i, bq := range req.Queries {
		engReqs[i] = engine.Request{Pattern: bq.Pattern, K: bq.K}
	}
	ds := p.ds
	evaluated := p.eng.EvaluateBatchAcross(ds.Set, p.scatter, ds.Tree, engReqs)
	defer func() { // as in handleQuery: once the body is written
		for _, er := range evaluated {
			core.ReleaseResults(er.Results)
		}
	}()
	if !p.next(stageAggregate, "") {
		return
	}
	answers := make([][]core.Answer, len(evaluated))
	for i, er := range evaluated {
		if er.Err == nil {
			answers[i] = p.answers.Leaf(er.Query, er.Results)
		}
	}
	p.next(stageEncode, "")
	p.body = appendBatchBody(p.body[:0], req.Dataset, snapsEpoch(p.snaps), ds.heads, evaluated, answers)
	p.next(stageWrite, "")
	writeBody(p.w, p.body)
}
