package server_test

// The server write path: /v1/admin/mutate semantics over the wire,
// edit-log persistence across catalog reloads, and the live-mutation
// consistency guarantee — queries racing mutations always see one whole
// snapshot, and post-mutation answers are byte-identical to the oracle's
// over the mutated document. Run under -race in CI.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"xmatch/internal/delta"
	"xmatch/internal/engine"
	"xmatch/internal/server"
	"xmatch/internal/store"
)

// mutateBody posts one mutate request and decodes the response.
func mutateBody(t *testing.T, url string, req server.MutateRequest) (*http.Response, server.MutateResponse, string) {
	t.Helper()
	resp, raw := postJSON(t, url+"/v1/admin/mutate", req)
	var mr server.MutateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &mr); err != nil {
			t.Fatalf("decoding mutate response: %v (%s)", err, raw)
		}
		return resp, mr, ""
	}
	var er struct {
		Error string `json:"error"`
	}
	_ = json.Unmarshal(raw, &er)
	return resp, mr, er.Error
}

func TestMutateEndpoint(t *testing.T) {
	env := newTestEnv(t, server.Options{})
	ds := env.fixtures[0].ds

	// Pick a text-bearing node of the orders document.
	var path string
	for _, p := range ds.Doc().Paths() {
		ns := ds.Doc().NodesByPath(p)
		if len(ns) > 0 && ns[0].Text != "" {
			path = p
			break
		}
	}
	if path == "" {
		t.Fatal("no text node in fixture document")
	}

	resp, mr, _ := mutateBody(t, env.ts.URL, server.MutateRequest{
		Dataset: "orders",
		Edits: []delta.Edit{
			{Op: delta.OpSetText, Path: path, Ordinal: 0, Text: "mutated-value"},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate status %d", resp.StatusCode)
	}
	if mr.Epoch != 1 || mr.Applied != 1 || mr.Persisted {
		t.Fatalf("mutate response %+v", mr)
	}
	if got := ds.Doc().NodesByPath(path)[0].Text; got != "mutated-value" {
		t.Fatalf("document text %q after mutate", got)
	}

	// The dataset listing and statsz reflect the new epoch.
	dresp, raw := getJSON(t, env.ts.URL+"/v1/datasets")
	if dresp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"epoch":1`) {
		t.Fatalf("datasets after mutate: %d %s", dresp.StatusCode, raw)
	}
	ms := scrapeStatsz(t, env.ts.URL)
	mutations := mustValue(t, ms, "xmatch_http_requests_total", epLabel("mutate"))
	edits := mustValue(t, ms, "xmatch_edits_applied_total")
	if mutations != 1 || edits != 1 {
		t.Fatalf("statsz mutations=%v edits=%v", mutations, edits)
	}
	orders := dsLabel("orders")
	epoch := mustValue(t, ms, "xmatch_delta_epoch", orders)
	batches, _ := metricSum(ms, "xmatch_delta_batches_total", orders)
	applied, _ := metricSum(ms, "xmatch_delta_edits_total", orders)
	durable, _ := metricSum(ms, "xmatch_replica_log_durable", orders)
	if epoch != 1 || batches != 1 || applied != 1 || durable != 0 {
		t.Fatalf("orders statsz: epoch %v batches %v edits %v durable shards %v", epoch, batches, applied, durable)
	}
	if _, ok := metricValue(ms, "xmatch_http_request_seconds_count", epLabel("mutate")); !ok {
		t.Fatal("statsz lacks mutate latency histogram")
	}

	// Error paths: unknown dataset, empty batch, oversized batch, bad
	// edit shape, unresolvable target. Each leaves the epoch untouched.
	errCases := []struct {
		name string
		req  server.MutateRequest
		code int
	}{
		{"unknown dataset", server.MutateRequest{Dataset: "nope", Edits: []delta.Edit{{Op: delta.OpDelete, Path: "x"}}}, http.StatusNotFound},
		{"empty batch", server.MutateRequest{Dataset: "orders"}, http.StatusBadRequest},
		{"bad shape", server.MutateRequest{Dataset: "orders", Edits: []delta.Edit{{Op: "zap", Path: "x"}}}, http.StatusBadRequest},
		{"unresolvable", server.MutateRequest{Dataset: "orders", Edits: []delta.Edit{{Op: delta.OpDelete, Path: "no.such.path"}}}, http.StatusBadRequest},
	}
	for _, tc := range errCases {
		resp, _, msg := mutateBody(t, env.ts.URL, tc.req)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, msg, tc.code)
		}
	}
	if ds.Snapshot().Epoch != 1 {
		t.Fatalf("failed mutations advanced the epoch to %d", ds.Snapshot().Epoch)
	}

	// Oversized batch.
	big := server.MutateRequest{Dataset: "orders"}
	for i := 0; i < 300; i++ {
		big.Edits = append(big.Edits, delta.Edit{Op: delta.OpSetText, Path: path, Text: "x"})
	}
	if resp, _, _ := mutateBody(t, env.ts.URL, big); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d", resp.StatusCode)
	}
}

// TestMutateThenQueryDifferential: after a mutation, every wire mode must
// answer byte-identically to the oracle over the mutated snapshot — the
// differential guarantee extended to live documents.
func TestMutateThenQueryDifferential(t *testing.T) {
	env := newTestEnv(t, server.Options{})
	f := env.fixtures[0]

	// Rename-free structural mutation: insert one subtree, delete another,
	// all under a snapshot the queries will then be checked against.
	doc := f.ds.Doc()
	paths := doc.Paths()
	deletePath := paths[len(paths)-1] // deepest in sort order; never the root
	edits := []delta.Edit{
		{Op: delta.OpInsert, Path: doc.Root.Path, Pos: -1, XML: "<Annex><Note>added</Note></Annex>"},
		{Op: delta.OpDelete, Path: deletePath, Ordinal: 0},
	}
	resp, mr, msg := mutateBody(t, env.ts.URL, server.MutateRequest{Dataset: f.name, Edits: edits})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %s", resp.StatusCode, msg)
	}
	if mr.Epoch != 1 {
		t.Fatalf("epoch %d", mr.Epoch)
	}

	for _, pattern := range f.queries[:4] {
		for _, mode := range []string{"basic", "compact", "topk"} {
			k := 0
			if mode == "topk" {
				k = 3
			}
			resp, raw := postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{
				Dataset: f.name, Pattern: pattern, Mode: mode, K: k,
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", pattern, mode, resp.StatusCode, raw)
			}
			var qr server.QueryResponse
			if err := json.Unmarshal(raw, &qr); err != nil {
				t.Fatal(err)
			}
			wantJSON, wantAns := oracleJSON(t, f.o, f.ds, pattern, mode, k)
			gotJSON, _ := json.Marshal(qr.Results)
			if string(wantJSON) != string(gotJSON) {
				t.Fatalf("%s %s: wire results diverged from the oracle over the mutated snapshot", pattern, mode)
			}
			gotAns, _ := json.Marshal(qr.Answers)
			if string(wantAns) != string(gotAns) {
				t.Fatalf("%s %s: aggregated answers diverged", pattern, mode)
			}
		}
	}
}

// TestMutatePersistenceAcrossReload: with an EditLogPath in the manifest,
// mutations survive /v1/admin/reload by replay, and a dataset without a
// log reverts to pristine.
func TestMutatePersistenceAcrossReload(t *testing.T) {
	dir := t.TempDir()
	man := &store.Catalog{Entries: []store.CatalogEntry{
		{Name: "durable", Dataset: "D1", Mappings: 8, DocNodes: 200, DocSeed: 3, EditLogPath: "durable.editlog"},
		{Name: "volatile", Dataset: "D1", Mappings: 8, DocNodes: 200, DocSeed: 3},
	}}
	loader := func() (*server.Catalog, error) {
		return server.BuildCatalog(man, dir, engine.Options{Workers: 2})
	}
	srv, err := server.New(loader, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	applyOne := func(name string) server.MutateResponse {
		t.Helper()
		doc := srv.Catalog().Get(name).Doc()
		var path string
		for _, p := range doc.Paths() {
			if ns := doc.NodesByPath(p); len(ns) > 0 && ns[0].Text != "" {
				path = p
				break
			}
		}
		body, _ := json.Marshal(server.MutateRequest{Dataset: name, Edits: []delta.Edit{
			{Op: delta.OpSetText, Path: path, Text: "persisted!"},
			{Op: delta.OpInsert, Path: doc.Root.Path, Pos: 0, XML: "<Audit>yes</Audit>"},
		}})
		req := httptest.NewRequest(http.MethodPost, "/v1/admin/mutate", strings.NewReader(string(body)))
		rw := httptest.NewRecorder()
		srv.ServeHTTP(rw, req)
		if rw.Code != http.StatusOK {
			t.Fatalf("mutate %s: %d %s", name, rw.Code, rw.Body.String())
		}
		var mr server.MutateResponse
		if err := json.Unmarshal(rw.Body.Bytes(), &mr); err != nil {
			t.Fatal(err)
		}
		return mr
	}

	mr := applyOne("durable")
	if !mr.Persisted {
		t.Fatal("durable dataset reported unpersisted mutation")
	}
	if mr2 := applyOne("volatile"); mr2.Persisted {
		t.Fatal("volatile dataset reported persisted mutation")
	}
	if _, err := os.Stat(filepath.Join(dir, "durable.editlog")); err != nil {
		t.Fatalf("edit log missing: %v", err)
	}
	durableXML := srv.Catalog().Get("durable").Doc().String()

	if _, err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	dAfter := srv.Catalog().Get("durable")
	vAfter := srv.Catalog().Get("volatile")
	if dAfter.Snapshot().Epoch != 1 {
		t.Fatalf("durable epoch %d after reload, want 1 (replayed)", dAfter.Snapshot().Epoch)
	}
	if got := dAfter.Doc().String(); got != durableXML {
		t.Fatal("durable document did not replay to its mutated state")
	}
	if vAfter.Snapshot().Epoch != 0 {
		t.Fatalf("volatile epoch %d after reload, want 0 (pristine)", vAfter.Snapshot().Epoch)
	}
	// The replayed index equals a fresh build (spot check via stats).
	if dAfter.Index().Stats().Postings != dAfter.Doc().Len() {
		t.Fatal("replayed index postings disagree with document size")
	}

	// A second mutation after reload appends to the same log and replays
	// again.
	applyOne("durable")
	if _, err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Catalog().Get("durable").Snapshot().Epoch; got != 2 {
		t.Fatalf("epoch %d after second reload, want 2", got)
	}
}

// TestConcurrentMutationsAndQueries hammers one dataset with concurrent
// writers and readers. Every response must be internally consistent (a
// whole snapshot: results decode and agree with the response's own
// epoch-consistent document), every mutation must land exactly once
// (epochs are dense), and the run must be race-clean under -race.
func TestConcurrentMutationsAndQueries(t *testing.T) {
	env := newTestEnv(t, server.Options{})
	f := env.fixtures[1] // the small dataset keeps this quick
	pattern := f.queries[0]

	var wg sync.WaitGroup
	const writers, readers, rounds = 3, 4, 12
	errs := make(chan error, writers+readers)

	doc := f.ds.Doc()
	var textPath string
	for _, p := range doc.Paths() {
		if ns := doc.NodesByPath(p); len(ns) > 0 && ns[0].Text != "" {
			textPath = p
			break
		}
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				body, _ := json.Marshal(server.MutateRequest{Dataset: f.name, Edits: []delta.Edit{
					{Op: delta.OpSetText, Path: textPath, Text: fmt.Sprintf("w%d-r%d", w, r)},
				}})
				resp, err := http.Post(env.ts.URL+"/v1/admin/mutate", "application/json", strings.NewReader(string(body)))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("mutate status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				body, _ := json.Marshal(server.QueryRequest{Dataset: f.name, Pattern: pattern})
				resp, err := http.Post(env.ts.URL+"/v1/query", "application/json", strings.NewReader(string(body)))
				if err != nil {
					errs <- err
					return
				}
				var qr server.QueryResponse
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := f.ds.Live.Stats()
	if st.Epoch != writers*rounds || st.Batches != writers*rounds {
		t.Fatalf("epoch %d batches %d, want %d dense", st.Epoch, st.Batches, writers*rounds)
	}
	// The end state still matches a rebuild.
	if f.ds.Index().Stats().Postings != f.ds.Doc().Len() {
		t.Fatal("index postings diverged from document after concurrent mutation")
	}
}
