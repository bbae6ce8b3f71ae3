package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"xmatch/internal/dataset"
	"xmatch/internal/index"
	"xmatch/internal/mapgen"
	"xmatch/internal/mapping"
	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

// sharedResults builds results the way the evaluators hand them over: a
// few distinct match slices, each carried by several mappings, plus an
// empty answer and a slice that is equal in content to another but not in
// identity.
func sharedResults() []Result {
	q0, q1 := &twig.Node{Label: "a", Index: 0}, &twig.Node{Label: "b", Index: 1}
	node := func(path string, start int, text string) *xmltree.Node {
		return &xmltree.Node{Path: path, Start: start, Text: text}
	}
	pair := func(start int, text string) twig.Match {
		return twig.Match{{Q: q0, D: node("Order", 1, "")}, {Q: q1, D: node("Order.<Line>&\"x\"", start, text)}}
	}
	a := []twig.Match{pair(16, "Cathy"), pair(32, "line\u2028sep\x01\t"), pair(48, "")}
	b := []twig.Match{pair(64, "Bob \xff\xfe <b>")}
	aCopy := append([]twig.Match(nil), a...)
	return []Result{
		{MappingIndex: 0, Prob: 0.25, Matches: a},
		{MappingIndex: 1, Prob: 1e-7, Matches: b},
		{MappingIndex: 3, Prob: 0.125, Matches: a},
		{MappingIndex: 4, Prob: 0.0625, Matches: nil},
		{MappingIndex: 7, Prob: 1e21, Matches: b},
		{MappingIndex: 8, Prob: 0.3, Matches: aCopy},
		{MappingIndex: 9, Prob: 0.1, Matches: a[:2]},
		{MappingIndex: 12, Prob: 0.2, Matches: []twig.Match{{}}},
	}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAppendResultsJSONMatchesEncodingJSON: the renderer's bytes are
// encoding/json's bytes for the wire forms, shared fragments included.
func TestAppendResultsJSONMatchesEncodingJSON(t *testing.T) {
	results := sharedResults()
	if got, want := AppendResultsJSON(nil, results, nil), mustMarshal(t, ToWire(results)); !bytes.Equal(got, want) {
		t.Fatalf("results:\ngot  %s\nwant %s", got, want)
	}
	for _, rs := range [][]Result{nil, {}} {
		if got := AppendResultsJSON(nil, rs, headsOf(0.5)); string(got) != "[]" {
			t.Fatalf("empty results rendered %s", got)
		}
	}
	answers := []Answer{
		{Values: []string{"Alice", "<Bob>"}, Prob: 0.5},
		{Values: []string{}, Prob: 5e-324},
		{Values: nil, Prob: 0},
	}
	if got, want := AppendAnswersJSON(nil, answers), mustMarshal(t, AnswersToWire(answers)); !bytes.Equal(got, want) {
		t.Fatalf("answers:\ngot  %s\nwant %s", got, want)
	}
	if got := AppendAnswersJSON(nil, nil); string(got) != "[]" {
		t.Fatalf("nil answers rendered %s", got)
	}
}

// TestAppendResultsJSONSelfAppendAcrossGrowth: a shared fragment is copied
// from the buffer into itself. Rendering into buffers of every capacity
// from empty to exact makes the buffer reallocate at every possible point
// of the rendering — while a fragment is first rendered, between the two,
// and in the middle of the self-append — and the bytes must never differ.
func TestAppendResultsJSONSelfAppendAcrossGrowth(t *testing.T) {
	results := sharedResults()
	// Heads for some of the results, so both ways of opening a result
	// cross a growth.
	heads := headsOf(0.25, 1e-7, 0, 0.125)
	prefix := []byte(`{"results":`)
	want := append(append([]byte(nil), prefix...), mustMarshal(t, ToWire(results))...)
	for c := len(prefix); c <= len(want); c++ {
		dst := append(make([]byte, 0, c), prefix...)
		if got := AppendResultsJSON(dst, results, heads); !bytes.Equal(got, want) {
			t.Fatalf("capacity %d:\ngot  %s\nwant %s", c, got, want)
		}
	}
}

// TestAppendResultsJSONManyDistinctSlices: more distinct match slices than
// the renderer's inline identity table holds (basic mode over many
// rewrites), each repeated before and after the table spills into its map.
func TestAppendResultsJSONManyDistinctSlices(t *testing.T) {
	qn := &twig.Node{Label: "a"}
	var slices [][]twig.Match
	for i := 0; i < 3*smallTableInline; i++ {
		slices = append(slices, []twig.Match{{{Q: qn, D: &xmltree.Node{Path: "p", Start: i + 1, Text: fmt.Sprint("t", i)}}}})
	}
	var results []Result
	for round := 0; round < 3; round++ {
		for i := range slices {
			ms := slices[(i*5+round)%len(slices)]
			results = append(results, Result{MappingIndex: len(results), Prob: 0.001 * float64(len(results)+1), Matches: ms})
		}
	}
	if got, want := AppendResultsJSON(nil, results, nil), mustMarshal(t, ToWire(results)); !bytes.Equal(got, want) {
		t.Fatalf("results:\ngot  %s\nwant %s", got, want)
	}
}

// TestAppendResultsJSONRepeatedPaths: a fragment copies a node's rendered
// path when the node's previous match bound an equal path — equal in
// value, held in a distinct string header — and renders again after a
// different path; nodes 8 and -1, outside the renderer's table, always
// render, and an empty first path is rendered, not taken for a copy.
func TestAppendResultsJSONRepeatedPaths(t *testing.T) {
	const p = "Order.<Line>&\"x\"\u2028\xff"
	var nodes []*twig.Node
	for _, i := range []int{0, 7, 8, -1} {
		nodes = append(nodes, &twig.Node{Index: i})
	}
	var ms []twig.Match
	for i, path := range []string{p, strings.Clone(p), "Order.Other", strings.Clone(p), "", "", p} {
		var m twig.Match
		for _, qn := range nodes {
			m = append(m, twig.Binding{Q: qn, D: &xmltree.Node{Path: path, Start: i, Text: path}})
		}
		ms = append(ms, m)
	}
	results := []Result{
		{MappingIndex: 0, Prob: 0.5, Matches: ms},
		{MappingIndex: 1, Prob: 0.25, Matches: ms[4:]}, // a fragment of its own, opening on ""
		{MappingIndex: 2, Prob: 0.125, Matches: ms[1:3]},
	}
	if got, want := AppendResultsJSON(nil, results, nil), mustMarshal(t, ToWire(results)); !bytes.Equal(got, want) {
		t.Fatalf("results:\ngot  %s\nwant %s", got, want)
	}
}

// TestAppendJSONStringWordBoundaries: plain bytes are skipped a word at a
// time, so every byte value is tried at every offset of a 24-byte plain
// string — at, inside and across the word boundaries — with a second
// escape five bytes on, and multi-byte runes and a lone 0xFF are placed
// across the boundary at offset 8.
func TestAppendJSONStringWordBoundaries(t *testing.T) {
	const plain = "Order.Contact.EMail_0123"
	check := func(s string) {
		t.Helper()
		if got, want := AppendJSONString(nil, s), mustMarshal(t, s); !bytes.Equal(got, want) {
			t.Fatalf("%q:\ngot  %s\nwant %s", s, got, want)
		}
	}
	for b := 0; b < 256; b++ {
		for off := range len(plain) {
			s := []byte(plain)
			s[off] = byte(b)
			if off+5 < len(s) {
				s[off+5] = '\n'
			}
			check(string(s))
		}
	}
	for _, r := range []string{"é", "\u2028", "\xff"} {
		for off := 6; off <= 9; off++ {
			check(plain[:off] + r + plain[off+len(r):])
		}
	}
}

// headsOf is the head table of a mapping set with these probabilities.
func headsOf(probs ...float64) ResultHeads {
	set := &mapping.Set{}
	for _, p := range probs {
		set.Mappings = append(set.Mappings, &mapping.Mapping{Prob: p})
	}
	return NewResultHeads(set)
}

// TestAppendResultsJSONWithHeads: with a head table the bytes are still
// encoding/json's, whether a result's head is the table's (every float
// form: zero, minus zero, both exponent forms, subnormals), differs from it
// in the last bit or in the sign of zero, or names a mapping the table does
// not hold — and only the first kind is copied.
func TestAppendResultsJSONWithHeads(t *testing.T) {
	probs := []float64{0, math.Copysign(0, -1), 1e-7, 1e21, 5e-324, 2.2250738585072009e-308, 0.1, 1, 123456789.125e-15, 9.999999999999999e20, 1e-6}
	heads := headsOf(probs...)
	ms := sharedResults()[0].Matches
	var results []Result
	taken := 0
	add := func(mi int, p float64, hit bool) {
		r := Result{MappingIndex: mi, Prob: p, Matches: ms}
		if got := heads.head(r) != nil; got != hit {
			t.Fatalf("mapping %d prob %v: head found %v, want %v", mi, p, got, hit)
		}
		if hit {
			taken++
		}
		results = append(results, r)
	}
	for mi, p := range probs {
		add(mi, p, true)
		add(mi, math.Nextafter(p, 2), false)
		add(mi, -p, false) // the sign bit alone, zero's included
		add(mi-len(probs)-1, p, false)
		add(mi+len(probs), p, false)
	}
	add(0, probs[1], false) // 0 and -0 compare equal and render differently
	add(1, probs[0], false)
	if taken != len(probs) {
		t.Fatalf("%d results took a head, want %d", taken, len(probs))
	}
	want := mustMarshal(t, ToWire(results))
	if got := AppendResultsJSON(nil, results, heads); !bytes.Equal(got, want) {
		t.Fatalf("with heads:\ngot  %s\nwant %s", got, want)
	}
	if got := AppendResultsJSON(nil, results, nil); !bytes.Equal(got, want) {
		t.Fatalf("without heads:\ngot  %s\nwant %s", got, want)
	}
}

// TestTableIIIResultsTakeHeads: every result the evaluators produce for the
// benchmark's collection (D7, |M| = 100, the 3,473-node document), compact
// and top-5, opens with its mapping's head — so the equivalence tests above
// cannot pass by always formatting.
func TestTableIIIResultsTakeHeads(t *testing.T) {
	d, err := dataset.Load("D7")
	if err != nil {
		t.Fatal(err)
	}
	doc := d.OrderDocument(3473, 42)
	index.Attach(doc)
	set, err := mapgen.TopH(d.Matching, 100, mapgen.Partition)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := Build(set, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	heads := NewResultHeads(set)
	for _, spec := range dataset.Queries() {
		q, err := PrepareQuery(spec.Text, set)
		if err != nil {
			t.Fatal(err)
		}
		for _, results := range [][]Result{Evaluate(q, set, doc, bt), EvaluateTopK(q, set, doc, bt, 5)} {
			if len(results) == 0 {
				t.Fatalf("%s: empty answer", spec.ID)
			}
			for _, r := range results {
				if heads.head(r) == nil {
					t.Fatalf("%s: mapping %d (prob %v) does not take its head", spec.ID, r.MappingIndex, r.Prob)
				}
			}
			if got, want := AppendResultsJSON(nil, results, heads), mustMarshal(t, ToWire(results)); !bytes.Equal(got, want) {
				t.Fatalf("%s: %d results differ from encoding/json", spec.ID, len(results))
			}
		}
	}
}

// aggregateReference is AggregateByNode as it stood before value sets were
// shared by slice identity and the tie-break rendered once: a value set per
// result, fmt.Sprint inside the comparator.
func aggregateReference(results []Result, qn *twig.Node) []Answer {
	byKey := map[string]*Answer{}
	for _, r := range results {
		valSet := map[string]bool{}
		for _, m := range r.Matches {
			if d := m.Get(qn); d != nil {
				valSet[d.Text] = true
			}
		}
		vals := make([]string, 0, len(valSet))
		for v := range valSet {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		key := strings.Join(vals, "\x00")
		if a, ok := byKey[key]; ok {
			a.Prob += r.Prob
		} else {
			byKey[key] = &Answer{Values: vals, Prob: r.Prob}
		}
	}
	out := make([]Answer, 0, len(byKey))
	for _, a := range byKey {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		return fmt.Sprint(out[i].Values) < fmt.Sprint(out[j].Values)
	})
	return out
}

// TestAggregateByNodeManyTies: many answers with equal probability (the
// order rests on the tie-break alone), value sets reached through shared
// slices, through content-equal distinct slices and through different
// slices binding the same values, and sums of three and more terms whose
// floating-point result depends on the order of addition.
func TestAggregateByNodeManyTies(t *testing.T) {
	qn := &twig.Node{Label: "leaf", Index: 1}
	other := &twig.Node{Label: "root", Index: 0}
	match := func(text string) twig.Match {
		return twig.Match{{Q: other, D: &xmltree.Node{Text: "ignored"}}, {Q: qn, D: &xmltree.Node{Text: text}}}
	}
	var results []Result
	add := func(prob float64, ms []twig.Match) {
		results = append(results, Result{MappingIndex: len(results), Prob: prob, Matches: ms})
	}
	var tied [][]twig.Match
	for i := 0; i < 40; i++ {
		tied = append(tied, []twig.Match{match(fmt.Sprintf("v%02d", (i*7)%40)), match("w")})
	}
	for _, ms := range tied {
		add(0.01, ms)
	}
	shared := []twig.Match{match("x"), match("y"), match("x")}
	for _, p := range []float64{0.1, 0.2, 0.3, 1e-17, 0.7} {
		add(p, shared)
	}
	add(0.05, append([]twig.Match(nil), shared...))   // equal content, other identity
	add(0.15, []twig.Match{match("y"), match("x")})   // other matches, same values
	add(0.01, []twig.Match{match("v07"), match("w")}) // joins one of the tied answers
	// Empty answers share one key: nil, empty, and no binding for qn.
	add(0.02, nil)
	add(0.03, []twig.Match{})
	add(0.04, []twig.Match{{{Q: other, D: &xmltree.Node{}}}})
	for i := len(tied) - 1; i >= 0; i -= 3 {
		add(0.01, tied[i]) // shared slices again, far from their first use
	}

	got, want := AggregateByNode(results, qn), aggregateReference(results, qn)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("aggregate differs from the reference:\ngot  %v\nwant %v", got, want)
	}
	for i := 0; i < 20; i++ { // map iteration must not reach the order
		if again := AggregateByNode(results, qn); !reflect.DeepEqual(again, got) {
			t.Fatalf("aggregate not deterministic:\nrun 0 %v\nrun %d %v", got, i+1, again)
		}
	}
}

// TestAnswerScratchReuse: answer sets built one after another in one
// scratch — a batch's members — each equal what a fresh aggregation gives,
// the earlier ones too, after the scratch's arrays grew under them; Clear
// then drops every string the scratch held, and the scratch builds the same
// sets again.
func TestAnswerScratchReuse(t *testing.T) {
	qn := &twig.Node{Label: "leaf", Index: 1}
	other := &twig.Node{Label: "root", Index: 0}
	match := func(text string) twig.Match {
		return twig.Match{{Q: other, D: &xmltree.Node{Text: "ignored"}}, {Q: qn, D: &xmltree.Node{Text: text}}}
	}
	var sets [][]Result
	for n := 1; n <= 12; n++ {
		var rs []Result
		for i := 0; i < 3*n; i++ {
			ms := []twig.Match{match(fmt.Sprint(i % n)), match(fmt.Sprint(i * 5 % (n + 2)))}
			rs = append(rs, Result{MappingIndex: i, Prob: float64(i%4) / 10, Matches: ms})
		}
		sets = append(sets, append(rs, Result{MappingIndex: len(rs), Prob: 0.05})) // an empty answer
	}
	var s AnswerScratch
	for round := 0; round < 2; round++ {
		var got [][]Answer
		for _, rs := range sets {
			got = append(got, s.byNode(rs, qn))
		}
		for i, rs := range sets {
			if want := AggregateByNode(rs, qn); !reflect.DeepEqual(got[i], want) {
				t.Fatalf("round %d, set %d: %v, want %v", round, i, got[i], want)
			}
		}
		s.Clear()
		for _, v := range s.values[:cap(s.values)] {
			if v != "" {
				t.Fatalf("round %d: Clear left %q in the value array", round, v)
			}
		}
		for _, a := range s.answers[:cap(s.answers)] {
			if a.Values != nil || len(s.answers) != 0 {
				t.Fatalf("round %d: Clear left answer %v", round, a)
			}
		}
	}
}
