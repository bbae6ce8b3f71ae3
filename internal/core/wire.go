package core

// This file defines the JSON wire forms of PTQ answers used by the serving
// layer (internal/server) and the remote CLI client. The forms are plain
// data — no pointers into the document or pattern — and their conversion is
// deterministic: encoding the sequential evaluators' results and the
// concurrent engine's results yields byte-identical JSON, which is what the
// over-the-wire differential tests assert.

// WireBinding is one query-node→document-node binding of a match: the
// pattern node's preorder index together with the bound document node's
// dotted path, preorder start number (its identity within the document),
// and text content.
type WireBinding struct {
	Node  int    `json:"node"`
	Path  string `json:"path"`
	Start int    `json:"start"`
	Text  string `json:"text,omitempty"`
}

// WireMatch is the wire form of one twig.Match.
type WireMatch struct {
	Bindings []WireBinding `json:"bindings"`
}

// WireResult is the wire form of one Result: the matches of the query
// through one possible mapping, with that mapping's probability.
type WireResult struct {
	MappingIndex int         `json:"mapping"`
	Prob         float64     `json:"prob"`
	Matches      []WireMatch `json:"matches"`
}

// WireAnswer is the wire form of one aggregated Answer.
type WireAnswer struct {
	Values []string `json:"values"`
	Prob   float64  `json:"prob"`
}

// ToWire converts evaluator results to their wire form, preserving result,
// match, and binding order exactly.
func ToWire(results []Result) []WireResult {
	out := make([]WireResult, len(results))
	for i, r := range results {
		wr := WireResult{MappingIndex: r.MappingIndex, Prob: r.Prob}
		wr.Matches = make([]WireMatch, len(r.Matches))
		for j, m := range r.Matches {
			bs := make([]WireBinding, len(m))
			for k, b := range m {
				bs[k] = WireBinding{Node: b.Q.Index, Path: b.D.Path, Start: b.D.Start, Text: b.D.Text}
			}
			wr.Matches[j] = WireMatch{Bindings: bs}
		}
		out[i] = wr
	}
	return out
}

// AnswersToWire converts aggregated answers to their wire form, preserving
// order.
func AnswersToWire(answers []Answer) []WireAnswer {
	out := make([]WireAnswer, len(answers))
	for i, a := range answers {
		out[i] = WireAnswer{Values: a.Values, Prob: a.Prob}
	}
	return out
}

// AggregateLeaf aggregates results by the values bound to the query's last
// pattern node (the leaf of the spine) — the presentation both the CLI and
// the serving layer use for human-readable answers.
func AggregateLeaf(q *Query, results []Result) []Answer {
	return new(AnswerScratch).Leaf(q, results)
}
