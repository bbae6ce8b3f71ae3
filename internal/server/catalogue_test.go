package server_test

import (
	"bufio"
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"xmatch/internal/delta"
	"xmatch/internal/engine"
	"xmatch/internal/obs"
	"xmatch/internal/server"
	"xmatch/internal/store"
)

// family is one metric family as the catalogue lists it and as a scrape
// shows it: its type, its label names in sorted order (a histogram's le
// left out) and its help text.
type family struct {
	typ    string
	labels []string
	help   string
}

// readCatalogue parses DESIGN.md's metric catalogue: the table rows whose
// first cell names an xmatch_* family.
func readCatalogue(t *testing.T, path string) map[string]family {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]family{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "| `xmatch_") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 4 {
			t.Fatalf("catalogue row has %d cells, want 4: %s", len(cells), line)
		}
		unquote := func(s string) string { return strings.Trim(strings.TrimSpace(s), "`") }
		name := unquote(cells[0])
		var labels []string
		if l := strings.TrimSpace(cells[2]); l != "—" {
			for _, part := range strings.Split(l, ",") {
				labels = append(labels, unquote(part))
			}
			slices.Sort(labels)
		}
		if _, dup := out[name]; dup {
			t.Fatalf("catalogue lists %s twice", name)
		}
		out[name] = family{typ: strings.TrimSpace(cells[1]), labels: labels}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// scrapeFamilies adds the families one /metricsz scrape emits to got.
func scrapeFamilies(t *testing.T, base string, got map[string]family) {
	t.Helper()
	resp, raw := getJSON(t, base+"/metricsz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz status %d", resp.StatusCode)
	}
	ms, err := obs.ParseExposition(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			f := got[name]
			f.help = help
			got[name] = f
		} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			f := got[name]
			f.typ = typ
			got[name] = f
		}
	}
	for _, m := range ms {
		name := m.Name
		if _, ok := got[name]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				name = strings.TrimSuffix(name, suffix)
			}
		}
		f := got[name]
		for _, l := range m.Labels {
			if l.Name != "le" && !slices.Contains(f.labels, l.Name) {
				f.labels = append(f.labels, l.Name)
				slices.Sort(f.labels)
			}
		}
		got[name] = f
	}
}

// TestMetricCatalogue holds DESIGN.md's metric catalogue to the code, in
// both directions: a fully configured primary (SLO, capture, a durable
// two-shard dataset) and its follower together emit exactly the families
// the table lists, each with the listed type and labels. A failure prints
// the row the table lacks.
func TestMetricCatalogue(t *testing.T) {
	want := readCatalogue(t, filepath.Join("..", "..", "DESIGN.md"))
	dir := t.TempDir()
	man := &store.Catalog{Entries: []store.CatalogEntry{
		{Name: "durable", Dataset: "D1", Mappings: 8, DocNodes: 300, DocSeed: 3, Shards: 2, EditLogPath: "durable.editlog"},
	}}
	srv, err := server.New(func() (*server.Catalog, error) {
		return server.BuildCatalog(man, dir, engine.Options{Workers: 2})
	}, server.Options{
		Manifest:    func() (*store.Catalog, error) { return man, nil },
		SLOTarget:   50 * time.Millisecond,
		CapturePath: filepath.Join(dir, "queries.capture"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	pts := httptest.NewServer(srv)
	t.Cleanup(pts.Close)

	// A query files a fingerprint; a mutation appends to the durable log.
	ds := srv.Catalog().Get("durable")
	if resp, raw := postJSON(t, pts.URL+"/v1/query", server.QueryRequest{Dataset: "durable", Pattern: leafPatterns(t, ds, 2)[0]}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, raw)
	}
	if resp, _, msg := mutateBody(t, pts.URL, server.MutateRequest{
		Dataset: "durable",
		Edits:   []delta.Edit{{Op: delta.OpSetText, Path: textPath(t, ds), Text: "catalogued"}},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %s", resp.StatusCode, msg)
	}
	fts, _, _ := newReplica(t, pts.URL, server.Options{})

	got := map[string]family{}
	scrapeFamilies(t, pts.URL, got)
	scrapeFamilies(t, fts.URL, got)
	for name, g := range got {
		w, ok := want[name]
		labels := "—"
		if len(g.labels) > 0 {
			labels = "`" + strings.Join(g.labels, "`, `") + "`"
		}
		switch {
		case !ok:
			t.Errorf("DESIGN.md's catalogue lacks %s:\n| `%s` | %s | %s | %s |", name, name, g.typ, labels, g.help)
		case w.typ != g.typ || !slices.Equal(w.labels, g.labels):
			t.Errorf("catalogue lists %s as %s %v; emitted as %s %v", name, w.typ, w.labels, g.typ, g.labels)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("catalogue lists %s, which neither primary nor follower emits", name)
		}
	}
}
