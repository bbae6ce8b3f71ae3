package core

import (
	"math"
	"testing"

	"xmatch/internal/mapping"
	"xmatch/internal/schema"
	"xmatch/internal/xmltree"
)

func TestByTupleAnswers(t *testing.T) {
	set, doc := invoiceFixture(t) // two mappings, probs 0.6 and 0.4
	q, err := PrepareQuery("//INVOICE_PARTY//CONTACT_NAME", set)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := Build(set, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	results := Evaluate(q, set, doc, bt)
	tuples := ByTupleAnswers(results)
	// Mapping 0 binds BCN ("Cathy"), mapping 1 binds RCN ("Bob"); the two
	// matches are distinct, each with its mapping's probability.
	if len(tuples) != 2 {
		t.Fatalf("tuples = %d, want 2", len(tuples))
	}
	if math.Abs(tuples[0].Prob-0.6) > 1e-9 || math.Abs(tuples[1].Prob-0.4) > 1e-9 {
		t.Fatalf("probs = %v, %v", tuples[0].Prob, tuples[1].Prob)
	}
	if tuples[0].Prob < tuples[1].Prob {
		t.Fatal("tuples not ordered by probability")
	}

	icn := q.Pattern.Nodes()[1]
	vals := ValueDistribution(results, icn)
	if len(vals) != 2 {
		t.Fatalf("value distribution = %d entries", len(vals))
	}
	got := map[string]float64{}
	for _, a := range vals {
		got[a.Values[0]] = a.Prob
	}
	if math.Abs(got["Cathy"]-0.6) > 1e-9 || math.Abs(got["Bob"]-0.4) > 1e-9 {
		t.Fatalf("value probs = %v", got)
	}
}

func TestByTupleSharedMatchAccumulates(t *testing.T) {
	// Two mappings that agree on the query subtree produce the same match;
	// by-tuple must sum their probabilities.
	set, doc := invoiceFixture(t)
	q, err := PrepareQuery("//INVOICE_PARTY", set)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := Build(set, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	results := Evaluate(q, set, doc, bt)
	tuples := ByTupleAnswers(results)
	if len(tuples) != 1 {
		t.Fatalf("tuples = %d, want 1 shared match", len(tuples))
	}
	if math.Abs(tuples[0].Prob-1.0) > 1e-9 {
		t.Fatalf("shared match prob = %v, want 1.0", tuples[0].Prob)
	}
}

func TestByTupleEmptyResults(t *testing.T) {
	if got := ByTupleAnswers(nil); len(got) != 0 {
		t.Fatalf("empty results produced %d tuples", len(got))
	}
	if got := ValueDistribution(nil, nil); len(got) != 0 {
		t.Fatalf("empty results produced %d values", len(got))
	}
}

// invoiceFixture builds the introduction's scenario: one invoice party
// whose contact name two mappings bind to different source elements.
func invoiceFixture(t *testing.T) (*mapping.Set, *xmltree.Document) {
	t.Helper()
	src, err := schema.ParseSpec("S", `
Order
  BP
    BOC
      BCN
    ROC
      RCN
`)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := schema.ParseSpec("T", `
ORDER
  INVOICE_PARTY
    CONTACT_NAME
`)
	if err != nil {
		t.Fatal(err)
	}
	ids := func(s *schema.Schema, path string) int { return s.ByPath(path).ID }
	mk := func(cn string, score float64) *mapping.Mapping {
		return &mapping.Mapping{
			Pairs: []mapping.Pair{
				{S: ids(src, "Order"), T: ids(tgt, "ORDER")},
				{S: ids(src, "Order.BP"), T: ids(tgt, "ORDER.INVOICE_PARTY")},
				{S: ids(src, cn), T: ids(tgt, "ORDER.INVOICE_PARTY.CONTACT_NAME")},
			},
			Score: score,
		}
	}
	set := mapping.MustNewSet(src, tgt, []*mapping.Mapping{
		mk("Order.BP.BOC.BCN", 0.6),
		mk("Order.BP.ROC.RCN", 0.4),
	})
	root := xmltree.NewRoot("Order")
	bp := root.AddChild("BP")
	bp.AddChild("BOC").AddChild("BCN").AddText("Cathy")
	bp.AddChild("ROC").AddChild("RCN").AddText("Bob")
	return set, xmltree.New(root)
}
