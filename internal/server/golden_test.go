package server_test

// Golden response digests. Every other differential suite compares the
// server with sequential internal/core at the same commit, so a change to
// the evaluator both sides share is pinned only to itself. This suite pins
// it to bytes recorded earlier: testdata/evaluator_golden.json holds the
// SHA-256 of every /v1/query body of the matrix below, generated at the
// commit before the block-tree evaluator became plan-driven (ISSUE 15) and
// checked in. Regenerate (`go test ./internal/server -run
// TestGoldenResponseDigests -update-golden`) only from a commit whose
// bytes are trusted, never to make a failing evaluator change pass.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"xmatch/internal/dataset"
	"xmatch/internal/delta"
	"xmatch/internal/engine"
	"xmatch/internal/server"
	"xmatch/internal/store"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/evaluator_golden.json from this commit's responses")

const goldenPath = "testdata/evaluator_golden.json"

// goldenModes is the mode/k matrix of the golden file: the two modes the
// server defaults to, top-k below, inside and beyond the relevant set.
var goldenModes = []struct {
	mode string
	k    int
}{{"compact", 0}, {"topk", 1}, {"topk", 5}, {"topk", 100}}

func TestGoldenResponseDigests(t *testing.T) {
	got := map[string]string{}
	for _, shards := range []int{1, 4} {
		man := &store.Catalog{Entries: []store.CatalogEntry{
			{Name: "golden", Dataset: "D7", Mappings: 100, DocNodes: 2400, DocSeed: 7, Shards: shards},
		}}
		srv, err := server.New(func() (*server.Catalog, error) {
			return server.BuildCatalog(man, ".", engine.Options{Workers: 4})
		}, server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		record := func(phase string) {
			for _, spec := range dataset.Queries() {
				for _, mk := range goldenModes {
					resp, body := postJSON(t, ts.URL+"/v1/query",
						server.QueryRequest{Dataset: "golden", Pattern: spec.Text, Mode: mk.mode, K: mk.k})
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("%s %s/%d: status %d: %s", spec.ID, mk.mode, mk.k, resp.StatusCode, body)
					}
					sum := sha256.Sum256(body)
					key := fmt.Sprintf("shards=%d/%s/%s/%s/k=%d", shards, phase, spec.ID, mk.mode, mk.k)
					got[key] = fmt.Sprintf("%d:%s", len(body), hex.EncodeToString(sum[:]))
				}
			}
		}
		record("before")
		goldenMutate(t, ts.URL, srv.Catalog().Get("golden"))
		record("after")
		ts.Close()
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("matrix has %d bodies, golden file %d", len(got), len(want))
	}
	moved := 0
	for key, w := range want {
		if got[key] != w {
			t.Errorf("%s: body %s, golden %s", key, got[key], w)
		}
		if strings.Contains(key, "/before/") && want[strings.Replace(key, "/before/", "/after/", 1)] != w {
			moved++
		}
	}
	if moved == 0 {
		t.Error("golden file: the mutation changed no body; the after phase pins nothing")
	}
}

// goldenMutate edits the document under the running server so the "after"
// phase is served from new snapshots by the same prepared queries: the
// last e-mail leaf the second Table III query matches (in the last shard
// that has one) gets a new text and a new sibling — one value edit and one
// structural edit, both inside the answers of several queries.
func goldenMutate(t *testing.T, url string, ds *server.Dataset) {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/query",
		server.QueryRequest{Dataset: "golden", Pattern: dataset.Queries()[1].Text, Mode: "compact"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("locating the mutation target: status %d", resp.StatusCode)
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	path, start := "", -1
	for _, r := range qr.Results {
		if n := len(r.Matches); n > 0 {
			bs := r.Matches[n-1].Bindings
			path, start = bs[len(bs)-1].Path, bs[len(bs)-1].Start
			break
		}
	}
	if start < 0 {
		t.Fatal("no match to mutate; fixture too weak")
	}
	for s, sh := range ds.Shards() {
		for ord, n := range sh.Live.Snapshot().Doc.NodesByPath(path) {
			if n.Start != start {
				continue
			}
			parent, label := path[:strings.LastIndexByte(path, '.')], path[strings.LastIndexByte(path, '.')+1:]
			parentOrd := -1
			for i, p := range sh.Live.Snapshot().Doc.NodesByPath(parent) {
				if p.IsAncestorOf(n) {
					parentOrd = i
				}
			}
			if parentOrd < 0 {
				t.Fatal("mutation target's parent not found by path")
			}
			resp, body := postJSON(t, url+"/v1/admin/mutate", server.MutateRequest{
				Dataset: "golden",
				Shard:   s,
				Edits: []delta.Edit{
					{Op: delta.OpSetText, Path: path, Ordinal: ord, Text: "golden@example.org"},
					{Op: delta.OpInsert, Path: parent, Ordinal: parentOrd, Pos: -1, XML: "<" + label + ">inserted@example.org</" + label + ">"},
				},
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("mutate: status %d: %s", resp.StatusCode, body)
			}
			return
		}
	}
	t.Fatalf("node %s@%d not found in any shard", path, start)
}
