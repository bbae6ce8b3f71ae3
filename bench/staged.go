package main

import (
	"encoding/json"
	"fmt"
	"time"

	"xmatch/internal/core"
	"xmatch/internal/delta"
	"xmatch/internal/engine"
	"xmatch/internal/server"
	"xmatch/internal/xmltree"
)

// The staged pipeline makes, from the benchmark's side, the calls the
// handler makes into each layer's public functions, in the handler's
// order, with a span around each. Its output must be the handler's bytes:
// every staged request is checked against the same digest.

// stager replays requests stage by stage against a built instance's own
// collection: the same engine, caches, snapshots and logs the handler
// uses.
type stager struct {
	in  *instance
	ds  *server.Dataset
	tr  *tracer
	req int // last request ID handed out
	// overlayMax is the deepest index overlay chain seen after a staged
	// mutation.
	overlayMax int
	results    int // results returned by staged queries
	queries    int
}

func newStager(in *instance, tr *tracer) *stager {
	return &stager{in: in, ds: in.srv.Catalog().Get(datasetName), tr: tr}
}

// query replays one /v1/query request and leaves the response digest in
// the instance's writer, as serve does.
func (s *stager) query(r request) error {
	tr := s.tr
	s.req++
	id := s.req
	root := tr.begin("request", id, 0)

	sp := tr.begin("server.decode", id, root)
	var qr server.QueryRequest
	err := json.Unmarshal(r.body, &qr)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("staged decode: %w", err)
	}

	ds := s.ds
	snaps := ds.Snapshots()
	docs := make([]*xmltree.Document, len(snaps))
	var epoch uint64
	for i, sn := range snaps {
		docs[i] = sn.Doc
		epoch = max(epoch, sn.Epoch)
	}
	// The handler's per-request budget: half the dataset's pool.
	eng := ds.Engine.Sub((ds.Engine.Workers() + 1) / 2)

	sp = tr.begin("engine.prepare", id, root)
	q, _, err := eng.PrepareCached(qr.Pattern, ds.Set)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("staged prepare: %w", err)
	}

	ev := tr.begin("engine.evaluate", id, root)
	sh := engine.Shards{Docs: docs, Observe: func(_ int, took time.Duration) {
		tr.ended("engine.shard_evaluate", id, ev, took)
	}}
	var results []core.Result
	switch qr.Mode {
	case "basic":
		results = eng.EvaluateBasicAcross(q, ds.Set, sh)
	case "topk":
		results = eng.EvaluateTopKAcross(q, ds.Set, sh, ds.Tree, qr.K)
	default:
		results = eng.EvaluateAcross(q, ds.Set, sh, ds.Tree)
	}
	tr.end(ev)

	sp = tr.begin("core.to_wire", id, root)
	wire := core.ToWire(results)
	tr.end(sp)

	sp = tr.begin("core.aggregate", id, root)
	answers := core.AnswersToWire(core.AggregateLeaf(q, results))
	tr.end(sp)

	sp = tr.begin("engine.fingerprint", id, root)
	_ = engine.FingerprintPattern(qr.Dataset, q.Pattern.String(), qr.Mode, qr.K)
	tr.end(sp)

	resp := server.QueryResponse{
		Dataset: qr.Dataset, Pattern: qr.Pattern, Mode: qr.Mode, K: qr.K,
		Epoch: epoch, Results: wire, Answers: answers,
	}
	s.in.w.reset()
	sp = tr.begin("server.encode", id, root)
	err = json.NewEncoder(&s.in.w).Encode(resp)
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return fmt.Errorf("staged encode: %w", err)
	}

	// What the capture log would add to the request; off by default in
	// xmatchd, so it sits outside the request's span.
	sp = tr.begin("server.digest", id, 0)
	_ = server.DigestResults(wire, answers)
	tr.end(sp)

	s.queries++
	s.results += len(results)
	return nil
}

// mutate replays one /v1/admin/mutate request: it really applies the
// batch, through the handle and the shard's log as the handler does.
func (s *stager) mutate(m mutation) error {
	tr := s.tr
	s.req++
	id := s.req
	root := tr.begin("request", id, 0)

	sp := tr.begin("server.mutate_decode", id, root)
	var mr server.MutateRequest
	err := json.Unmarshal(m.body, &mr)
	if err == nil {
		err = delta.Validate(mr.Edits)
	}
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("staged mutate decode: %w", err)
	}

	shard := s.ds.Shards()[mr.Shard]
	ap := tr.begin("delta.apply", id, root)
	snap, err := shard.Live.ApplyLogged(mr.Edits, func(epoch uint64, edits []delta.Edit) error {
		lg := tr.begin("store.editlog_append", id, ap)
		err := shard.Log.Append(epoch, edits)
		tr.end(lg)
		return err
	})
	tr.end(ap)
	if err != nil {
		return fmt.Errorf("staged apply: %w", err)
	}
	s.overlayMax = max(s.overlayMax, snap.Index.Stats().Overlays)

	s.in.w.reset()
	sp = tr.begin("server.mutate_encode", id, root)
	err = json.NewEncoder(&s.in.w).Encode(server.MutateResponse{
		Dataset: mr.Dataset, Shard: mr.Shard, Epoch: snap.Epoch,
		Applied: len(mr.Edits), DocNodes: snap.Doc.Len(), Persisted: shard.Log.Durable(),
	})
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return fmt.Errorf("staged mutate encode: %w", err)
	}
	return nil
}

// logBytesPerEdit is the mean framed size of the records the shards' logs
// retain: one record per one-edit batch.
func (s *stager) logBytesPerEdit() float64 {
	var bytes int64
	var records int
	for _, sh := range s.ds.Shards() {
		st := sh.Log.Status()
		bytes += st.RetainedBytes
		records += st.RetainedRecords
	}
	if records == 0 {
		return 0
	}
	return float64(bytes) / float64(records)
}

// batchBody is one /v1/batch request carrying the whole cycle.
func batchBody(reqs []request) ([]byte, error) {
	br := server.BatchRequest{Dataset: datasetName}
	for _, r := range reqs {
		br.Queries = append(br.Queries, server.BatchQuery{Pattern: r.pattern, K: r.k})
	}
	return json.Marshal(br)
}

// stagedPass replays ops stage by stage, in chunks that alternate with
// reference slices like the measured rounds, so every span carries the
// speed factor of its chunk.
func stagedPass(s *stager, inp *inputs, ops []op, expect []digest, ref *refKernel) error {
	var err error
	eachChunk(ops, inp.spec.chunkOps, ref, func(_ int, chunk []op) {
		for _, o := range chunk {
			if err != nil {
				return
			}
			if o.mutate {
				err = s.mutate(inp.mutations[o.idx])
			} else {
				err = s.query(inp.requests[o.idx])
			}
			if err == nil {
				s.in.checkOp(o, expect)
			}
		}
	}, s.tr.setSpeed)
	return err
}
