// Package oracle is the answer key of the served-mode differential tests.
// It answers a probabilistic twig query by the paper's Algorithm 3
// (core.EvaluateBasic: rewrite the whole query through every relevant
// mapping and match it) over a fresh copy of the documents it is handed,
// with no accelerator attached. It therefore shares neither the compiled
// plan, nor the unit memo, nor the positional index, nor the top-k rank
// limit with what the tests check: the copy is reassembled from the
// snapshot's nodes, so nothing cached on the original reaches it, and
// the top-k cut is Definition 5's, applied to Algorithm 3's full answer.
//
// Only tests import it.
package oracle

import (
	"sort"
	"sync/atomic"
	"testing"

	"xmatch/internal/core"
	"xmatch/internal/mapping"
	"xmatch/internal/xmltree"
)

// Oracle answers the queries of one fixture of a differential test. A
// fixture whose answers are all empty compares nothing, so when the test
// ends the oracle fails it if it answered anything and no answer bound a
// match. A test over several fixtures therefore asks one oracle per
// fixture: one fixture's matches must not hide another's empty answers.
// Safe for concurrent use: it reports a failure with t.Errorf, which any
// goroutine may call, and gives an empty answer then.
type Oracle struct {
	t               testing.TB
	asked, nonEmpty atomic.Bool
}

// New returns an oracle for one fixture of the test t.
func New(t testing.TB) *Oracle {
	o := &Oracle{t: t}
	t.Cleanup(func() {
		if o.asked.Load() && !o.nonEmpty.Load() && !t.Failed() {
			t.Error("oracle: every answer of this fixture was empty; pick queries with matches")
		}
	})
	return o
}

// Results answers the pattern over the concatenation of docs, a
// collection's members in order (one document is a collection of one):
// the PTQ's answer for k <= 0, the top-k PTQ's for k > 0 — the k relevant
// mappings with the highest probability, ties broken by mapping index.
// The results are in mapping order, as the evaluators return them.
func (o *Oracle) Results(set *mapping.Set, pattern string, k int, docs ...*xmltree.Document) []core.Result {
	o.t.Helper()
	_, rs := o.answer(set, pattern, k, docs)
	return rs
}

// Wire is Results in the wire form a response serves: the results and
// the answers aggregated on the pattern's last node.
func (o *Oracle) Wire(set *mapping.Set, pattern string, k int, docs ...*xmltree.Document) ([]core.WireResult, []core.WireAnswer) {
	o.t.Helper()
	q, rs := o.answer(set, pattern, k, docs)
	if q == nil {
		return nil, nil
	}
	return core.ToWire(rs), core.AnswersToWire(core.AggregateLeaf(q, rs))
}

func (o *Oracle) answer(set *mapping.Set, pattern string, k int, docs []*xmltree.Document) (*core.Query, []core.Result) {
	o.t.Helper()
	q, err := core.PrepareQuery(pattern, set)
	if err != nil {
		o.t.Errorf("oracle: %q: %v", pattern, err)
		return nil, nil
	}
	doc, err := concat(docs)
	if err != nil {
		o.t.Errorf("oracle: %v", err)
		return nil, nil
	}
	rs := core.EvaluateBasic(q, set, doc)
	if k > 0 {
		byRank := append([]core.Result(nil), rs...)
		sort.SliceStable(byRank, func(i, j int) bool { return byRank[i].Prob > byRank[j].Prob })
		rs = byRank[:min(k, len(byRank))]
		sort.Slice(rs, func(i, j int) bool { return rs[i].MappingIndex < rs[j].MappingIndex })
	}
	o.asked.Store(true)
	for _, r := range rs {
		if len(r.Matches) > 0 {
			o.nonEmpty.Store(true)
			break
		}
	}
	return q, rs
}

// concat copies the members and, for several, concatenates the copies.
func concat(docs []*xmltree.Document) (*xmltree.Document, error) {
	copies := make([]*xmltree.Document, len(docs))
	for i, d := range docs {
		c, err := copyOf(d)
		if err != nil {
			return nil, err
		}
		copies[i] = c
	}
	if len(copies) == 1 {
		return copies[0], nil
	}
	return xmltree.Corpus(copies...)
}

// copyOf reassembles a document from its nodes with their numbering.
func copyOf(d *xmltree.Document) (*xmltree.Document, error) {
	nodes := d.Nodes()
	parents := xmltree.ParentPositions(nodes)
	specs := make([]xmltree.NodeSpec, len(nodes))
	for i, n := range nodes {
		specs[i] = xmltree.NodeSpec{Label: n.Label, Text: n.Text, Parent: int(parents[i]), Start: n.Start, End: n.End}
	}
	return xmltree.Assemble(specs, d.NumBase())
}
