package index_test

import (
	"testing"

	"xmatch/internal/index"
	"xmatch/internal/twig"
)

func TestPathProfilesAccumulate(t *testing.T) {
	doc := buildDoc()
	ix := index.Build(doc)
	p := twig.MustParse(`Order/POLine/Quantity`)
	n := p.Nodes()
	paths := twig.PathBinding{n[0]: "PO", n[1]: "PO.Line", n[2]: "PO.Line.Qty"}

	if got := ix.PathProfiles(); len(got) != 0 {
		t.Fatalf("fresh index has %d profiles, want 0", len(got))
	}
	if ms := ix.MatchTwig(doc, p.Root, paths); len(ms) != 3 {
		t.Fatalf("matches = %d, want 3", len(ms))
	}
	profiles := ix.PathProfiles()
	byPath := map[string]index.PathProfile{}
	for _, pp := range profiles {
		byPath[pp.Path] = pp
	}
	for _, path := range []string{"PO", "PO.Line", "PO.Line.Qty"} {
		pp, ok := byPath[path]
		if !ok {
			t.Fatalf("no profile for %s in %+v", path, profiles)
		}
		if pp.Evals != 1 || pp.Candidates == 0 {
			t.Fatalf("profile %s = %+v", path, pp)
		}
		if pp.UsefulSurvivors > pp.Candidates || pp.ReachSurvivors > pp.UsefulSurvivors {
			t.Fatalf("profile %s funnel not monotone: %+v", path, pp)
		}
		if pp.Selectivity < 0 || pp.Selectivity > 1 {
			t.Fatalf("profile %s selectivity = %v", path, pp.Selectivity)
		}
	}

	// A memo hit runs no funnel: profiles must not move.
	ix.MatchTwig(doc, p.Root, paths)
	if again := ix.PathProfiles(); len(again) != len(profiles) || again[0] != profiles[0] {
		t.Fatalf("memo hit moved profiles: %+v -> %+v", profiles, again)
	}

	// The single-node fast path counts its candidates as undropped.
	fp := twig.MustParse(`Line`)
	ix.MatchTwig(doc, fp.Root, twig.PathBinding{fp.Root: "PO.Line"})
	pp := map[string]index.PathProfile{}
	for _, x := range ix.PathProfiles() {
		pp[x.Path] = x
	}
	line := pp["PO.Line"]
	if line.Evals != 2 {
		t.Fatalf("PO.Line evals = %d, want 2", line.Evals)
	}
	if line.Selectivity == 0 {
		t.Fatalf("fast-path candidates all dropped: %+v", line)
	}

	// PathStats joins the observed funnel onto the static rows.
	for _, st := range ix.PathStats() {
		if st.Path == "PO.Line.Qty" {
			if st.Evals != 1 || st.Candidates == 0 {
				t.Fatalf("PathStats row missing funnel: %+v", st)
			}
		}
		if st.Path == "PO.Line.Num" && (st.Evals != 0 || st.Candidates != 0) {
			t.Fatalf("never-evaluated path reports a funnel: %+v", st)
		}
	}
}

func TestPathProfilesSurviveApplyChanges(t *testing.T) {
	doc := buildDoc()
	ix := index.Build(doc)
	p := twig.MustParse(`Order/POLine/Quantity`)
	n := p.Nodes()
	paths := twig.PathBinding{n[0]: "PO", n[1]: "PO.Line", n[2]: "PO.Line.Qty"}
	ix.MatchTwig(doc, p.Root, paths)
	before := ix.PathProfiles()
	if len(before) == 0 {
		t.Fatal("no profiles on base index")
	}

	rev := doc.BeginRevision()
	target := rev.LocateByPath("PO.Line.Qty", 0)
	if target == nil {
		t.Fatal("PO.Line.Qty not found")
	}
	if err := rev.SetText(target.Start, "9"); err != nil {
		t.Fatal(err)
	}
	newDoc, cs := rev.Commit()
	nx := ix.ApplyChanges(newDoc, cs)
	after := nx.PathProfiles()
	if len(after) != len(before) {
		t.Fatalf("overlay lost profiles: %d -> %d", len(before), len(after))
	}
	nx.MatchTwig(newDoc, p.Root, paths)
	var evals uint64
	for _, pp := range nx.PathProfiles() {
		if pp.Path == "PO.Line.Qty" {
			evals = pp.Evals
		}
	}
	if evals != 2 {
		t.Fatalf("PO.Line.Qty evals after overlay eval = %d, want 2", evals)
	}
}
