package core

import (
	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

// Matcher is the pluggable twig-matching seam of PTQ evaluation: every
// rewritten pattern (whole queries in Algorithm 3, subtrees and single
// nodes in Algorithm 4) is matched against the document through it. A
// Matcher must return matches byte-identical in content and order to
// twig.MatchByPaths — evaluation correctness (the compiled plan's unit
// sharing, result merging, the engine's scatter over workers and shards)
// is proven against that contract.
//
// The contract has two sides. The matcher's output is shared and must not
// be written: the evaluation plan hands one match slice to every mapping
// of a result class, and the response path renders each distinct slice
// once, by identity. And a consumer of that output may read of a bound
// document node only its Start, End, Level, Path and Text — never compare
// node pointers, never follow Children. Under mutation a node object may
// have been superseded by a position-identical clone (see
// xmltree.ChangeSet), and the indexed
// matcher answers from results cached before the clone existed whenever the
// write touched none of the bound paths (index: carryFrom); two matches of
// one request may therefore bind the same position through different
// objects. StructuralJoin, Match.Key, AppendResultsJSON, ToWire and
// AggregateByNode read nothing else; where one of them needs node identity
// it is the Start number.
//
// The positional index of internal/index implements Matcher; attaching it
// to a document (index.Attach) routes all evaluation over that document —
// basic, block-tree and top-k alike — through the holistic indexed
// matcher. The index is discovered through the document's accelerator slot
// rather than passed parameter-by-parameter, so one dataset-wide index
// built at prepare time serves every mapping of the set with zero
// per-query plumbing and zero synchronization.
type Matcher interface {
	MatchTwig(doc *xmltree.Document, qn *twig.Node, paths twig.PathBinding) []twig.Match
}

// UnitMemo is the evaluation plan's seam into the result memo of the
// document's epoch, found like Matcher through the accelerator slot: a
// plan unit's output is a function of the unit and the document, so it is
// looked up before it is computed and stored once complete (see
// EmbeddingPlan.entry), then shared by every later request and, like
// matcher output, read-only. The positional index of internal/index
// implements it.
type UnitMemo interface {
	LookupUnit(qn *twig.Node, key string) ([]twig.Match, bool)
	StoreUnit(qn *twig.Node, key string, matches []twig.Match)
}

// matchPattern evaluates one rewritten pattern subtree over the document:
// through the document's attached Matcher when present, through the joined
// evaluator twig.MatchByPaths otherwise.
func matchPattern(doc *xmltree.Document, qn *twig.Node, paths twig.PathBinding) []twig.Match {
	if m, ok := doc.Accel().(Matcher); ok {
		return m.MatchTwig(doc, qn, paths)
	}
	return twig.MatchByPaths(doc, qn, paths)
}
