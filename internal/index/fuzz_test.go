package index_test

// FuzzMatchTwig is the three-way differential fuzzer of the matching
// stack: for a fuzzer-chosen document, pattern, and binding seed, the
// holistic matcher over the compressed index (index.Build), the joined
// evaluator (twig.MatchByPaths), and, when the candidate space is small
// enough, the brute-force oracle (twig.NaiveMatchByPaths) must agree. The
// indexed run and MatchByPaths must agree *exactly*: same matches, same
// order — which pins the compressed decode, the skip-pointer galloping,
// and the result memo against the reference matcher byte for byte. The
// corpus is seeded from the Table III workload patterns over an
// Order.xml-like document, plus adversarial shapes (recursive labels,
// value predicates, absent paths).

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"xmatch/internal/index"
	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

// orderXML is a miniature Order.xml in the shape of the paper's running
// example; the Table III seed patterns resolve against its labels.
const orderXML = `<Order>
  <DeliverTo>
    <Address><City>Leipzig</City><Country>DE</Country><Street>1 Main St</Street></Address>
    <Contact><Name>Alice</Name><EMail>alice@example.com</EMail></Contact>
  </DeliverTo>
  <Buyer><Contact><Name>Bob</Name></Contact></Buyer>
  <POLine><LineNo>1</LineNo><BPID>P-1</BPID><Price><UP>5.00</UP></Price><Quantity>3</Quantity></POLine>
  <POLine><LineNo>2</LineNo><BPID>P-2</BPID><Price><UP>7.50</UP></Price><Quantity>8</Quantity></POLine>
</Order>`

// fuzzBinding derives a path binding for the pattern from the document's
// real path set: each node prefers a path extending its parent's binding
// whose last segment equals its label, then any label match, then a
// seed-chosen arbitrary path (often non-nesting), then an absent path —
// so the corpus mixes productive, empty, and structurally impossible
// bindings.
func fuzzBinding(rng *rand.Rand, doc *xmltree.Document, pat *twig.Pattern) twig.PathBinding {
	paths := doc.Paths()
	binding := make(twig.PathBinding, pat.Size())
	parentPath := make(map[*twig.Node]string)
	var walk func(n *twig.Node)
	walk = func(n *twig.Node) {
		pp, hasParent := parentPath[n]
		var nested, labelled []string
		for _, p := range paths {
			ends := p == n.Label || strings.HasSuffix(p, "."+n.Label)
			if ends {
				labelled = append(labelled, p)
			}
			if hasParent && ends && len(p) > len(pp) && strings.HasPrefix(p, pp+".") {
				nested = append(nested, p)
			}
		}
		var chosen string
		switch {
		case len(nested) > 0 && rng.Intn(6) != 0:
			chosen = nested[rng.Intn(len(nested))]
		case len(labelled) > 0 && rng.Intn(6) != 0:
			chosen = labelled[rng.Intn(len(labelled))]
		case rng.Intn(2) == 0:
			chosen = paths[rng.Intn(len(paths))]
		default:
			chosen = n.Label + ".absent"
		}
		binding[n] = chosen
		for _, c := range n.Children {
			parentPath[c] = chosen
			walk(c)
		}
	}
	walk(pat.Root)
	return binding
}

func FuzzMatchTwig(f *testing.F) {
	seedDoc := orderXML
	for _, q := range []string{
		// The Table III workload (Q1–Q10 shapes).
		"Order/DeliverTo/Address[./City][./Country]/Street",
		"Order/DeliverTo/Contact/EMail",
		"Order/DeliverTo[./Address/City]/Contact/EMail",
		"Order/POLine[./LineNo]//UP",
		"Order/POLine[./LineNo][.//UP]/Quantity",
		"Order/POLine[./BPID][./LineNo][.//UP]/Quantity",
		"Order[./DeliverTo//Street]/POLine[.//BPID][.//UP]/Quantity",
		"Order[./DeliverTo[.//EMail]//Street]/POLine[.//UP]/Quantity",
		"Order[./Buyer/Contact]/POLine[.//BPID]/Quantity",
		"Order[./Buyer/Contact][./DeliverTo//City]//BPID",
		// Value predicates and degenerate shapes.
		`Order/POLine[./LineNo="2"]/Quantity`,
		`Order/POLine/Quantity[.="8"]`,
		"Order",
		"POLine/POLine/POLine",
	} {
		f.Add(seedDoc, q, uint64(1))
		f.Add(seedDoc, q, uint64(42))
	}
	f.Add("<a><a><a><b>x</b></a></a></a>", "a/a/b", uint64(7))
	f.Add("<r><x>v</x><x>v</x><x>w</x></r>", `r[./x="v"]/x`, uint64(9))
	f.Add("<r><x>v</x><x></x></r>", `r/x[.=""]`, uint64(11))

	f.Fuzz(func(t *testing.T, xmlText, patternText string, seed uint64) {
		if len(xmlText) > 1<<14 {
			return
		}
		doc, err := xmltree.ParseString(xmlText)
		if err != nil || doc.Len() > 300 {
			return
		}
		pat, err := twig.Parse(patternText)
		if err != nil || pat.Size() > 8 {
			return
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		binding := fuzzBinding(rng, doc, pat)

		want := twig.MatchByPaths(doc, pat.Root, binding)
		ix := index.Build(doc)
		got := ix.MatchTwig(doc, pat.Root, binding)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("MatchTwig diverged from MatchByPaths\npattern %s\nbinding %v\ngot  %v\nwant %v",
				pat, binding, keys(got), keys(want))
		}

		// The naive oracle enumerates every candidate assignment; only
		// run it when that space is small.
		space := 1
		for _, n := range pat.Nodes() {
			space *= len(doc.NodesByPath(binding[n])) + 1
			if space > 200000 {
				return
			}
		}
		naive := twig.NaiveMatchByPaths(doc, pat.Root, binding)
		if !reflect.DeepEqual(sortedKeys(got), sortedKeys(naive)) {
			t.Fatalf("MatchTwig diverged from the naive oracle\npattern %s\nbinding %v\ngot  %v\nnaive %v",
				pat, binding, sortedKeys(got), sortedKeys(naive))
		}
	})
}
