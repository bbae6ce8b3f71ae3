package server_test

// Cross-shard differential suite over the wire: a catalog entry with
// Shards > 1 is served by scatter-gather across member documents, and
// every /v1/query and /v1/batch response must decode byte-identically to
// the oracle's answer over the members' concatenation (internal/oracle:
// Algorithm 3 over xmltree.Corpus of fresh member copies) — the
// collection is indistinguishable from one big
// document on the wire. Plus shard-addressed mutation routing and the
// per-shard observability surface.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"xmatch/internal/dataset"
	"xmatch/internal/delta"
	"xmatch/internal/engine"
	"xmatch/internal/obs"
	"xmatch/internal/oracle"
	"xmatch/internal/server"
	"xmatch/internal/store"
)

const collShards = 3

// shardedEnv serves one sharded D7 collection next to a classic
// single-document one built from the same workload, so tests can also
// assert the two agree.
type shardedEnv struct {
	ts  *httptest.Server
	srv *server.Server
	ds  *server.Dataset // the sharded collection
	o   *oracle.Oracle
}

func newShardedEnv(t *testing.T, opts server.Options) *shardedEnv {
	t.Helper()
	man := &store.Catalog{Entries: []store.CatalogEntry{
		{Name: "corpus", Dataset: "D7", Mappings: 20, DocNodes: 2400, DocSeed: 7, Shards: collShards},
	}}
	loader := func() (*server.Catalog, error) {
		return server.BuildCatalog(man, ".", engine.Options{Workers: 4})
	}
	srv, err := server.New(loader, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	ds := srv.Catalog().Get("corpus")
	if ds == nil || ds.NumShards() != collShards {
		t.Fatalf("sharded dataset not built: %+v", ds)
	}
	return &shardedEnv{ts: ts, srv: srv, ds: ds, o: oracle.New(t)}
}

func assertQueryMatchesCorpus(t *testing.T, env *shardedEnv, pattern string, mk struct {
	mode string
	k    int
}) {
	t.Helper()
	wantResults, wantAnswers := oracleJSON(t, env.o, env.ds, pattern, mk.mode, mk.k)
	resp, body := postJSON(t, env.ts.URL+"/v1/query",
		server.QueryRequest{Dataset: "corpus", Pattern: pattern, Mode: mk.mode, K: mk.k})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%q %s/%d: status %d: %s", pattern, mk.mode, mk.k, resp.StatusCode, body)
	}
	var got rawQueryResp
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	label := fmt.Sprintf("%q %s/%d", pattern, mk.mode, mk.k)
	if !bytes.Equal(got.Results, wantResults) {
		t.Errorf("%s: results differ from the oracle over the corpus:\ngot  %s\nwant %s", label, got.Results, wantResults)
	}
	if !bytes.Equal(got.Answers, wantAnswers) {
		t.Errorf("%s: answers differ from the oracle over the corpus:\ngot  %s\nwant %s", label, got.Answers, wantAnswers)
	}
}

// TestCollectionDifferentialOverTheWire is the tentpole acceptance matrix:
// every Table III query under every mode/k, served scatter-gather,
// byte-identical to one-document evaluation of the concatenated corpus.
func TestCollectionDifferentialOverTheWire(t *testing.T) {
	env := newShardedEnv(t, server.Options{})
	for _, spec := range dataset.Queries() {
		for _, mk := range modeMatrix {
			assertQueryMatchesCorpus(t, env, spec.Text, mk)
		}
	}
}

// TestCollectionBatchDifferential fans the whole query list into /v1/batch
// against the sharded collection and checks every slot against the corpus.
func TestCollectionBatchDifferential(t *testing.T) {
	env := newShardedEnv(t, server.Options{})
	for _, k := range []int{0, 2} {
		var breq server.BatchRequest
		breq.Dataset = "corpus"
		for _, spec := range dataset.Queries() {
			breq.Queries = append(breq.Queries, server.BatchQuery{Pattern: spec.Text, K: k})
		}
		resp, body := postJSON(t, env.ts.URL+"/v1/batch", breq)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("k=%d: status %d: %s", k, resp.StatusCode, body)
		}
		var got rawBatchResp
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Responses) != len(dataset.Queries()) {
			t.Fatalf("k=%d: %d responses", k, len(got.Responses))
		}
		for i, spec := range dataset.Queries() {
			mode := "compact"
			if k > 0 {
				mode = "topk"
			}
			wantResults, wantAnswers := oracleJSON(t, env.o, env.ds, spec.Text, mode, k)
			slot := got.Responses[i]
			if slot.Error != "" {
				t.Fatalf("k=%d %s: error %q", k, spec.ID, slot.Error)
			}
			if !bytes.Equal(slot.Results, wantResults) || !bytes.Equal(slot.Answers, wantAnswers) {
				t.Errorf("k=%d %s: batch slot differs from the oracle over the corpus", k, spec.ID)
			}
		}
	}
}

// TestCollectionMutateShardRouting: a shard-addressed mutation lands on
// exactly that member document, the other shards stay pristine, and the
// differential guarantee holds over the mutated corpus. Out-of-range
// shards are client errors that touch nothing.
func TestCollectionMutateShardRouting(t *testing.T) {
	env := newShardedEnv(t, server.Options{})

	// Pick a resolvable leaf path on shard 1's document.
	shard1Doc := env.ds.Shards()[1].Live.Snapshot().Doc
	var path string
	for _, p := range shard1Doc.Paths() {
		if ns := shard1Doc.NodesByPath(p); len(ns) > 0 && len(ns[0].Children) == 0 {
			path = p
			break
		}
	}
	if path == "" {
		t.Fatal("no leaf path on shard 1")
	}

	resp, body := postJSON(t, env.ts.URL+"/v1/admin/mutate", server.MutateRequest{
		Dataset: "corpus",
		Shard:   1,
		Edits:   []delta.Edit{{Op: delta.OpSetText, Path: path, Ordinal: 0, Text: "sharded-mutation"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate shard 1: status %d: %s", resp.StatusCode, body)
	}
	var mr server.MutateResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Shard != 1 || mr.Epoch != 1 {
		t.Fatalf("mutate response %+v", mr)
	}
	for i, sh := range env.ds.Shards() {
		want := uint64(0)
		if i == 1 {
			want = 1
		}
		if got := sh.Live.Snapshot().Epoch; got != want {
			t.Fatalf("shard %d epoch %d, want %d", i, got, want)
		}
	}
	if got := env.ds.Shards()[1].Live.Snapshot().Doc.NodesByPath(path)[0].Text; got != "sharded-mutation" {
		t.Fatalf("shard 1 text %q after mutate", got)
	}

	// The differential guarantee holds over the mutated corpus.
	for _, mk := range modeMatrix {
		assertQueryMatchesCorpus(t, env, dataset.Queries()[0].Text, mk)
	}

	// Out-of-range shard addressing is rejected without touching state.
	for _, shard := range []int{-1, collShards} {
		resp, _ := postJSON(t, env.ts.URL+"/v1/admin/mutate", server.MutateRequest{
			Dataset: "corpus",
			Shard:   shard,
			Edits:   []delta.Edit{{Op: delta.OpSetText, Path: path, Text: "x"}},
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("shard %d: status %d, want 400", shard, resp.StatusCode)
		}
	}
}

// TestCollectionObservability: /v1/datasets reports the shard count and
// summed node totals, and /statsz carries series per shard — index and
// document sizes that sum to the listing's totals, and latency histograms
// that fill as scatter-gather queries run.
func TestCollectionObservability(t *testing.T) {
	env := newShardedEnv(t, server.Options{})

	for i := 0; i < 3; i++ {
		resp, _ := postJSON(t, env.ts.URL+"/v1/query",
			server.QueryRequest{Dataset: "corpus", Pattern: dataset.Queries()[0].Text})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d", resp.StatusCode)
		}
	}

	dresp, dbody := getBody(t, env.ts.URL+"/v1/datasets")
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("datasets status %d", dresp.StatusCode)
	}
	var dl struct {
		Datasets []server.DatasetInfo `json:"datasets"`
	}
	if err := json.Unmarshal(dbody, &dl); err != nil {
		t.Fatal(err)
	}
	if len(dl.Datasets) != 1 || dl.Datasets[0].Shards != collShards {
		t.Fatalf("dataset listing %+v", dl.Datasets)
	}
	var wantNodes int
	for _, sh := range env.ds.Shards() {
		wantNodes += sh.Live.Snapshot().Doc.Len()
	}
	if dl.Datasets[0].DocNodes != wantNodes {
		t.Fatalf("DocNodes %d, want summed %d", dl.Datasets[0].DocNodes, wantNodes)
	}

	ms := scrapeStatsz(t, env.ts.URL)
	if _, n := metricSum(ms, "xmatch_delta_doc_nodes"); n != collShards {
		t.Fatalf("%d shard node series, want %d", n, collShards)
	}
	for i := 0; i < collShards; i++ {
		labels := []obs.Label{dsLabel("corpus"), {Name: "shard", Value: strconv.Itoa(i)}}
		postings := mustValue(t, ms, "xmatch_index_postings", labels...)
		nodes := mustValue(t, ms, "xmatch_delta_doc_nodes", labels...)
		if postings != nodes {
			t.Errorf("shard %d: %v postings over %v nodes", i, postings, nodes)
		}
		if mustValue(t, ms, "xmatch_shard_evaluate_seconds_count", labels...) == 0 {
			t.Errorf("shard %d: latency histogram empty after scatter-gather queries", i)
		}
	}
	postings, _ := metricSum(ms, "xmatch_index_postings", dsLabel("corpus"))
	nodes, _ := metricSum(ms, "xmatch_delta_doc_nodes", dsLabel("corpus"))
	if postings != float64(wantNodes) || nodes != float64(wantNodes) {
		t.Fatalf("shard sums postings=%v nodes=%v, want the listing's %d", postings, nodes, wantNodes)
	}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}
