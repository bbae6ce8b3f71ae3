package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"xmatch/internal/core"
	"xmatch/internal/dataset"
	"xmatch/internal/mapgen"
	"xmatch/internal/mapping"
	"xmatch/internal/server"
	"xmatch/internal/xmltree"
)

// oracle answers requests the way the paper's sequential algorithms do:
// internal/core over one document (the concatenated corpus for a sharded
// collection), no engine, no index, no server. Its answers, rendered in the
// server's JSON form, are what every served body is compared against.
type oracle struct {
	set  *mapping.Set
	tree *core.BlockTree
	doc  *xmltree.Document
}

// pristineDocs regenerates the collection's member documents exactly as
// the catalog loader does.
func pristineDocs(spec workloadSpec, seed int64) ([]*xmltree.Document, error) {
	d, err := dataset.Load(datasetName)
	if err != nil {
		return nil, err
	}
	if spec.shards > 1 {
		return d.OrderCorpus(spec.shards, spec.docNodes, docSeed(seed)), nil
	}
	return []*xmltree.Document{d.OrderDocument(spec.docNodes, docSeed(seed))}, nil
}

// newOracle builds the oracle over the given member documents. The
// documents are only read. A corpus document carries no accelerator of its
// own, so an index attached to a served member is not consulted.
func newOracle(docs []*xmltree.Document) (*oracle, error) {
	d, err := dataset.Load(datasetName)
	if err != nil {
		return nil, err
	}
	set, err := mapgen.TopH(d.Matching, numMappings, mapgen.Partition)
	if err != nil {
		return nil, err
	}
	tree, err := core.Build(set, core.Options{Tau: 0.2})
	if err != nil {
		return nil, err
	}
	doc := docs[0]
	if len(docs) > 1 {
		if doc, err = xmltree.Corpus(docs...); err != nil {
			return nil, err
		}
	}
	return &oracle{set: set, tree: tree, doc: doc}, nil
}

// evaluate answers one request with the sequential evaluators. The results
// bind the returned query's own pattern nodes.
func (o *oracle) evaluate(r request) (*core.Query, []core.Result, error) {
	q, err := core.PrepareQuery(r.pattern, o.set)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle: %s: %w", r.twig, err)
	}
	switch r.mode {
	case "basic":
		return q, core.EvaluateBasic(q, o.set, o.doc), nil
	case "compact":
		return q, core.Evaluate(q, o.set, o.doc, o.tree), nil
	case "topk":
		return q, core.EvaluateTopK(q, o.set, o.doc, o.tree, r.k), nil
	}
	return nil, nil, fmt.Errorf("oracle: unknown mode %q", r.mode)
}

// body renders the exact bytes the server must answer the request with at
// the given epoch.
func (o *oracle) body(r request, epoch uint64) ([]byte, error) {
	q, results, err := o.evaluate(r)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(server.QueryResponse{
		Dataset: datasetName, Pattern: r.pattern, Mode: r.mode, K: r.k, Epoch: epoch,
		Results: core.ToWire(results), Answers: core.AnswersToWire(core.AggregateLeaf(q, results)),
	})
	if err != nil {
		return nil, fmt.Errorf("oracle: encoding %s: %w", r.twig, err)
	}
	return buf.Bytes(), nil
}

// expected computes the body digest of every request of the cycle.
func (o *oracle) expected(reqs []request, epoch uint64) ([]digest, error) {
	out := make([]digest, len(reqs))
	for i, r := range reqs {
		b, err := o.body(r, epoch)
		if err != nil {
			return nil, err
		}
		out[i] = digestOf(b)
	}
	return out, nil
}
