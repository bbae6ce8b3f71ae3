package server_test

// End-to-end integration tests: a catalog with two datasets served over
// httptest, asserting the differential guarantee over the wire — for every
// dataset/query/k in the matrix, /v1/query and /v1/batch responses decode
// to results byte-identical to sequential internal/core evaluation — plus
// concurrent clients, the stats/health/reload endpoints, and the error
// paths. Run under -race in CI.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"xmatch/internal/core"
	"xmatch/internal/dataset"
	"xmatch/internal/engine"
	"xmatch/internal/obs"
	"xmatch/internal/oracle"
	"xmatch/internal/server"
	"xmatch/internal/store"
	"xmatch/internal/xmltree"
)

// fixture holds one serving dataset alongside the queries the
// differential assertions ask it.
type fixture struct {
	name    string
	queries []string
	ds      *server.Dataset
	o       *oracle.Oracle // the fixture's own, so its empty answers show
}

// manifest is the two-dataset catalog the tests serve: the Table III
// workload dataset D7 and the small D1.
func manifest() *store.Catalog {
	return &store.Catalog{Entries: []store.CatalogEntry{
		{Name: "orders", Dataset: "D7", Mappings: 20, DocNodes: 1200, DocSeed: 7},
		{Name: "small", Dataset: "D1", Mappings: 16, DocNodes: 600, DocSeed: 3},
	}}
}

// firstLeafPattern is the spine query of d's first target leaf in preorder.
func firstLeafPattern(d *server.Dataset) string {
	for _, e := range d.Set.Target.Elements() {
		if e.IsLeaf() {
			return strings.ReplaceAll(e.Path, ".", "/")
		}
	}
	return ""
}

// leafPatterns derives resolvable spine queries from a dataset's target
// schema: dotted leaf paths as '/' patterns. It prefers leaves whose basic
// PTQ answer is non-empty (so the matrix exercises real matches) but keeps
// the first empty-answer leaf too, pinning the wire form of an empty result
// set.
func leafPatterns(t *testing.T, d *server.Dataset, n int) []string {
	t.Helper()
	var nonEmpty, empty []string
	for _, e := range d.Set.Target.Elements() {
		if len(nonEmpty) >= n-1 && len(empty) >= 1 {
			break
		}
		if !e.IsLeaf() {
			continue
		}
		pattern := strings.ReplaceAll(e.Path, ".", "/")
		q, err := core.PrepareQuery(pattern, d.Set)
		if err != nil {
			continue
		}
		if len(core.EvaluateBasic(q, d.Set, d.Doc())) > 0 {
			if len(nonEmpty) < n-1 {
				nonEmpty = append(nonEmpty, pattern)
			}
		} else if len(empty) < 1 {
			empty = append(empty, pattern)
		}
	}
	if len(nonEmpty) == 0 {
		t.Fatal("no leaf pattern with a non-empty answer; fixture too weak")
	}
	return append(nonEmpty, empty...)
}

type testEnv struct {
	ts       *httptest.Server
	srv      *server.Server
	fixtures []fixture
	loads    *int // loader invocation count
}

func newTestEnv(t *testing.T, opts server.Options) *testEnv {
	t.Helper()
	loads := 0
	loader := func() (*server.Catalog, error) {
		loads++
		return server.BuildCatalog(manifest(), ".", engine.Options{Workers: 4})
	}
	srv, err := server.New(loader, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	cat := srv.Catalog()
	orders := cat.Get("orders")
	small := cat.Get("small")
	if orders == nil || small == nil {
		t.Fatal("catalog is missing test datasets")
	}
	var d7Queries []string
	for _, q := range dataset.Queries() {
		d7Queries = append(d7Queries, q.Text)
	}
	return &testEnv{
		ts:  ts,
		srv: srv,
		fixtures: []fixture{
			{name: "orders", queries: d7Queries, ds: orders, o: oracle.New(t)},
			{name: "small", queries: leafPatterns(t, small, 4), ds: small, o: oracle.New(t)},
		},
		loads: &loads,
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
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

// rawQueryResp keeps the results/answers regions of a response as raw bytes
// for exact comparison.
type rawQueryResp struct {
	Dataset string          `json:"dataset"`
	Pattern string          `json:"pattern"`
	Mode    string          `json:"mode"`
	Results json.RawMessage `json:"results"`
	Answers json.RawMessage `json:"answers"`
}

type rawBatchResp struct {
	Dataset   string `json:"dataset"`
	Responses []struct {
		Pattern string          `json:"pattern"`
		K       int             `json:"k"`
		Results json.RawMessage `json:"results"`
		Answers json.RawMessage `json:"answers"`
		Error   string          `json:"error"`
	} `json:"responses"`
}

// modeMatrix is the query-mode/k matrix every dataset/query pair runs under.
var modeMatrix = []struct {
	mode string
	k    int
}{
	{"basic", 0}, {"compact", 0}, {"topk", 1}, {"topk", 3}, {"topk", 1000},
}

// TestQueryDifferentialOverTheWire is the acceptance matrix: every
// dataset/query/mode/k, /v1/query results and answers byte-identical to
// the oracle's (internal/oracle).
func TestQueryDifferentialOverTheWire(t *testing.T) {
	env := newTestEnv(t, server.Options{})
	for _, f := range env.fixtures {
		for _, pattern := range f.queries {
			for _, mk := range modeMatrix {
				wantResults, wantAnswers := oracleJSON(t, f.o, f.ds, pattern, mk.mode, mk.k)
				resp, body := postJSON(t, env.ts.URL+"/v1/query",
					server.QueryRequest{Dataset: f.name, Pattern: pattern, Mode: mk.mode, K: mk.k})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s %q %s/%d: status %d: %s", f.name, pattern, mk.mode, mk.k, resp.StatusCode, body)
				}
				var got rawQueryResp
				if err := json.Unmarshal(body, &got); err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s %q %s/%d", f.name, pattern, mk.mode, mk.k)
				if got.Dataset != f.name || got.Pattern != pattern || got.Mode != mk.mode {
					t.Errorf("%s: echo mismatch: %+v", label, got)
				}
				if !bytes.Equal(got.Results, wantResults) {
					t.Errorf("%s: results differ from the oracle:\ngot  %s\nwant %s", label, got.Results, wantResults)
				}
				if !bytes.Equal(got.Answers, wantAnswers) {
					t.Errorf("%s: answers differ from the oracle:\ngot  %s\nwant %s", label, got.Answers, wantAnswers)
				}
			}
		}
	}
}

// TestBatchDifferentialOverTheWire fans each dataset's whole query list
// into one /v1/batch call per k and checks every response slot.
func TestBatchDifferentialOverTheWire(t *testing.T) {
	env := newTestEnv(t, server.Options{})
	for _, f := range env.fixtures {
		for _, k := range []int{0, 2} {
			var breq server.BatchRequest
			breq.Dataset = f.name
			for _, pattern := range f.queries {
				breq.Queries = append(breq.Queries, server.BatchQuery{Pattern: pattern, K: k})
			}
			resp, body := postJSON(t, env.ts.URL+"/v1/batch", breq)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s k=%d: status %d: %s", f.name, k, resp.StatusCode, body)
			}
			var got rawBatchResp
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			if len(got.Responses) != len(f.queries) {
				t.Fatalf("%s k=%d: %d responses, want %d", f.name, k, len(got.Responses), len(f.queries))
			}
			for i, pattern := range f.queries {
				mode := "compact"
				if k > 0 {
					mode = "topk"
				}
				wantResults, wantAnswers := oracleJSON(t, f.o, f.ds, pattern, mode, k)
				slot := got.Responses[i]
				if slot.Error != "" {
					t.Errorf("%s k=%d %q: unexpected error %q", f.name, k, pattern, slot.Error)
					continue
				}
				if slot.Pattern != pattern {
					t.Errorf("%s k=%d slot %d: pattern %q, want %q (order not preserved)", f.name, k, i, slot.Pattern, pattern)
				}
				if !bytes.Equal(slot.Results, wantResults) {
					t.Errorf("%s k=%d %q: batch results differ from the oracle", f.name, k, pattern)
				}
				if !bytes.Equal(slot.Answers, wantAnswers) {
					t.Errorf("%s k=%d %q: batch answers differ from the oracle", f.name, k, pattern)
				}
			}
		}
	}
}

// TestConcurrentClients hammers query and batch from parallel goroutines
// and requires every response to stay byte-identical to the precomputed
// sequential answers; meaningful under -race.
func TestConcurrentClients(t *testing.T) {
	env := newTestEnv(t, server.Options{})
	type expectation struct {
		f       fixture
		pattern string
		want    []byte
	}
	var exps []expectation
	for _, f := range env.fixtures {
		for _, pattern := range f.queries[:3] {
			want, _ := oracleJSON(t, f.o, f.ds, pattern, "compact", 0)
			exps = append(exps, expectation{f, pattern, want})
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				exp := exps[(c+i)%len(exps)]
				if c%2 == 0 {
					_, body := postJSON(t, env.ts.URL+"/v1/query",
						server.QueryRequest{Dataset: exp.f.name, Pattern: exp.pattern})
					var got rawQueryResp
					if err := json.Unmarshal(body, &got); err != nil {
						t.Errorf("client %d: %v", c, err)
						return
					}
					if !bytes.Equal(got.Results, exp.want) {
						t.Errorf("client %d: concurrent query diverged for %s %q", c, exp.f.name, exp.pattern)
					}
				} else {
					_, body := postJSON(t, env.ts.URL+"/v1/batch", server.BatchRequest{
						Dataset: exp.f.name,
						Queries: []server.BatchQuery{{Pattern: exp.pattern}},
					})
					var got rawBatchResp
					if err := json.Unmarshal(body, &got); err != nil {
						t.Errorf("client %d: %v", c, err)
						return
					}
					if len(got.Responses) != 1 || !bytes.Equal(got.Responses[0].Results, exp.want) {
						t.Errorf("client %d: concurrent batch diverged for %s %q", c, exp.f.name, exp.pattern)
					}
				}
			}
		}(c)
	}
	wg.Wait()

	// A handler's bookkeeping — the in-flight gauge and the latency
	// histogram — lands after its body reaches the client, so wait for the
	// last request's deferred update before reading the counters.
	queryCount := func(ms []obs.ExpositionMetric) (hist, requests float64) {
		return mustValue(t, ms, "xmatch_http_request_seconds_count", epLabel("query")),
			mustValue(t, ms, "xmatch_http_requests_total", epLabel("query"))
	}
	waitForStats(t, env, func(ms []obs.ExpositionMetric) bool {
		hist, requests := queryCount(ms)
		return mustValue(t, ms, "xmatch_http_in_flight") == 0 && hist == requests
	})

	// After the storm: the gauge must be back to zero and the caches warm.
	ms := scrapeStatsz(t, env.ts.URL)
	if v := mustValue(t, ms, "xmatch_http_in_flight"); v != 0 {
		t.Errorf("inFlight = %v after all clients finished", v)
	}
	queries := mustValue(t, ms, "xmatch_http_requests_total", epLabel("query"))
	batches := mustValue(t, ms, "xmatch_http_requests_total", epLabel("batch"))
	if queries == 0 || batches == 0 {
		t.Errorf("request counters not incremented: queries %v batches %v", queries, batches)
	}
	if hits, _ := metricSum(ms, "xmatch_engine_prepare_cache_hits_total"); hits == 0 {
		t.Errorf("no prepared-query cache hits across %v requests", queries+batches)
	}
	if hist, requests := queryCount(ms); hist != requests {
		t.Errorf("query latency histogram count %v != queries %v", hist, requests)
	}
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
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

func TestDatasetsAndHealthz(t *testing.T) {
	env := newTestEnv(t, server.Options{})
	resp, body := getJSON(t, env.ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Errorf("healthz: %d %s", resp.StatusCode, body)
	}
	resp, body = getJSON(t, env.ts.URL+"/v1/datasets")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("datasets: %d", resp.StatusCode)
	}
	var list struct {
		Datasets []server.DatasetInfo `json:"datasets"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Datasets) != 2 || list.Datasets[0].Name != "orders" || list.Datasets[1].Name != "small" {
		t.Errorf("dataset listing wrong: %+v", list.Datasets)
	}
	if list.Datasets[0].Mappings != 20 || list.Datasets[0].Blocks == 0 {
		t.Errorf("orders info wrong: %+v", list.Datasets[0])
	}
}

func TestReload(t *testing.T) {
	env := newTestEnv(t, server.Options{})
	before := env.srv.Catalog()
	resp, body := postJSON(t, env.ts.URL+"/v1/admin/reload", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, body)
	}
	if *env.loads != 2 {
		t.Errorf("loader called %d times, want 2 (startup + reload)", *env.loads)
	}
	if env.srv.Catalog() == before {
		t.Error("reload did not swap the catalog")
	}
	// The reloaded catalog must answer queries identically.
	f := env.fixtures[0]
	want, _ := oracleJSON(t, f.o, f.ds, f.queries[0], "compact", 0)
	_, qbody := postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{Dataset: f.name, Pattern: f.queries[0]})
	var got rawQueryResp
	if err := json.Unmarshal(qbody, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Results, want) {
		t.Error("post-reload query differs from the oracle")
	}
}

func TestErrorPaths(t *testing.T) {
	env := newTestEnv(t, server.Options{})
	cases := []struct {
		name string
		do   func() (*http.Response, []byte)
		code int
	}{
		{"unknown dataset", func() (*http.Response, []byte) {
			return postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{Dataset: "nope", Pattern: "x"})
		}, http.StatusNotFound},
		{"bad pattern", func() (*http.Response, []byte) {
			return postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{Dataset: "orders", Pattern: "[[["})
		}, http.StatusBadRequest},
		{"unresolvable pattern", func() (*http.Response, []byte) {
			return postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{Dataset: "orders", Pattern: "No/Such/Path"})
		}, http.StatusBadRequest},
		{"topk without k", func() (*http.Response, []byte) {
			return postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{Dataset: "orders", Pattern: "Order", Mode: "topk"})
		}, http.StatusBadRequest},
		{"bad mode", func() (*http.Response, []byte) {
			return postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{Dataset: "orders", Pattern: "Order", Mode: "???"})
		}, http.StatusBadRequest},
		{"negative k, compact", func() (*http.Response, []byte) {
			return postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{Dataset: "orders", Pattern: "Order", Mode: "compact", K: -1})
		}, http.StatusBadRequest},
		{"negative k, basic", func() (*http.Response, []byte) {
			return postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{Dataset: "orders", Pattern: "Order", Mode: "basic", K: -1})
		}, http.StatusBadRequest},
		{"negative k, topk", func() (*http.Response, []byte) {
			return postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{Dataset: "orders", Pattern: "Order", Mode: "topk", K: -1})
		}, http.StatusBadRequest},
		{"negative k in a batch", func() (*http.Response, []byte) {
			return postJSON(t, env.ts.URL+"/v1/batch", server.BatchRequest{Dataset: "orders", Queries: []server.BatchQuery{{Pattern: "Order"}, {Pattern: "Order", K: -1}}})
		}, http.StatusBadRequest},
		{"malformed body", func() (*http.Response, []byte) {
			resp, err := http.Post(env.ts.URL+"/v1/query", "application/json", strings.NewReader("{not json"))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			return resp, nil
		}, http.StatusBadRequest},
		{"empty batch", func() (*http.Response, []byte) {
			return postJSON(t, env.ts.URL+"/v1/batch", server.BatchRequest{Dataset: "orders"})
		}, http.StatusBadRequest},
		{"oversized batch", func() (*http.Response, []byte) {
			req := server.BatchRequest{Dataset: "orders"}
			for i := 0; i < 257; i++ {
				req.Queries = append(req.Queries, server.BatchQuery{Pattern: "Order"})
			}
			return postJSON(t, env.ts.URL+"/v1/batch", req)
		}, http.StatusBadRequest},
		{"GET on query", func() (*http.Response, []byte) {
			return getJSON(t, env.ts.URL+"/v1/query")
		}, http.StatusMethodNotAllowed},
		{"GET on reload", func() (*http.Response, []byte) {
			return getJSON(t, env.ts.URL+"/v1/admin/reload")
		}, http.StatusMethodNotAllowed},
		{"oversized pattern", func() (*http.Response, []byte) {
			return postJSON(t, env.ts.URL+"/v1/query",
				server.QueryRequest{Dataset: "orders", Pattern: strings.Repeat("a/", 5000) + "a"})
		}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, _ := c.do()
		if resp.StatusCode != c.code {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.code)
		}
	}
	// Errors must be counted.
	if mustValue(t, scrapeStatsz(t, env.ts.URL), "xmatch_http_errors_total") == 0 {
		t.Error("error counter not incremented")
	}
}

// TestBatchAnswersWithColdCache is the regression test for answer
// aggregation in /v1/batch: match bindings compare pattern nodes by
// pointer, so aggregating with a re-prepared query (instead of the one the
// batch evaluated with) silently matches nothing once the prepared-query
// cache is disabled or evicted. With caching off, batch answers must still
// be byte-identical to the oracle's.
func TestBatchAnswersWithColdCache(t *testing.T) {
	loader := func() (*server.Catalog, error) {
		return server.BuildCatalog(manifest(), ".", engine.Options{Workers: 4, CacheCapacity: -1})
	}
	srv, err := server.New(loader, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	f := fixture{name: "orders", ds: srv.Catalog().Get("orders")}
	pattern := dataset.Queries()[1].Text
	wantResults, wantAnswers := oracleJSON(t, oracle.New(t), f.ds, pattern, "compact", 0)
	_, body := postJSON(t, ts.URL+"/v1/batch", server.BatchRequest{
		Dataset: "orders",
		Queries: []server.BatchQuery{{Pattern: pattern}},
	})
	var got rawBatchResp
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Responses) != 1 {
		t.Fatalf("%d responses, want 1", len(got.Responses))
	}
	if !bytes.Equal(got.Responses[0].Results, wantResults) {
		t.Errorf("cold-cache batch results differ from the oracle")
	}
	if !bytes.Equal(got.Responses[0].Answers, wantAnswers) {
		t.Errorf("cold-cache batch answers differ from the oracle:\ngot  %s\nwant %s",
			got.Responses[0].Answers, wantAnswers)
	}
}

// TestStatszIndexStats asserts the per-shard positional-index series of
// /statsz: present at startup, and refreshed (still present and sane)
// after a reload rebuilds the catalog.
func TestStatszIndexStats(t *testing.T) {
	env := newTestEnv(t, server.Options{})
	check := func(phase string) {
		t.Helper()
		ms := scrapeStatsz(t, env.ts.URL)
		names := map[string]bool{}
		for _, m := range ms {
			if m.Name == "xmatch_index_postings" {
				for _, l := range m.Labels {
					if l.Name == "dataset" {
						names[l.Value] = true
					}
				}
			}
		}
		if len(names) != 2 {
			t.Fatalf("%s: index series for datasets %v, want 2", phase, names)
		}
		for name := range names {
			d := env.srv.Catalog().Get(name)
			if d == nil {
				t.Fatalf("%s: statsz series for unknown dataset %q", phase, name)
			}
			sum := func(family string) float64 {
				v, _ := metricSum(ms, family, dsLabel(name))
				return v
			}
			if postings := sum("xmatch_index_postings"); postings != float64(d.Doc().Len()) {
				t.Errorf("%s %s: index postings = %v, want one per node = %d", phase, name, postings, d.Doc().Len())
			}
			if sum("xmatch_index_resident_bytes") <= 0 || sum("xmatch_index_paths") <= 0 {
				t.Errorf("%s %s: implausible index stats: %v resident bytes, %v paths", phase, name,
					sum("xmatch_index_resident_bytes"), sum("xmatch_index_paths"))
			}
			if build := sum("xmatch_index_build_seconds"); build <= 0 {
				t.Errorf("%s %s: index build seconds = %v, want > 0", phase, name, build)
			}
		}
	}
	check("startup")
	if resp, body := postJSON(t, env.ts.URL+"/v1/admin/reload", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, body)
	}
	check("after reload")
}

// TestIndexBlobCatalog serves a checked-in v7 manifest whose blob-backed
// entry names an index blob (IndexPath, a field manifests no longer
// have). The blob does not exist and is never read: the entry builds its
// index from its document at load, and answers like a fresh build.
func TestIndexBlobCatalog(t *testing.T) {
	dir := t.TempDir()
	base, err := server.BuildCatalog(manifest(), ".", engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	orig := base.Get("small")
	if err := os.Mkdir(dir+"/blobs", 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile := func(name string, write func(f *os.File) error) {
		t.Helper()
		f, err := os.Create(dir + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("blobs/frozen.set", func(f *os.File) error { return store.SaveSet(f, orig.Set) })
	writeFile("blobs/frozen.xml", func(f *os.File) error { return orig.Doc().WriteXML(f) })

	mf, err := os.Open("../store/testdata/catalog-v7-indexpath.blob")
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.LoadCatalog(mf)
	mf.Close()
	if err != nil {
		t.Fatal(err)
	}
	cat, err := server.BuildCatalog(man, dir, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := cat.Get("frozen")
	if d.Index() == nil || d.Index().Stats().Postings != d.Doc().Len() {
		t.Fatalf("entry's index missing or wrong: %+v", d.Index())
	}
	if _, err := os.Stat(dir + "/blobs/frozen.idx"); !os.IsNotExist(err) {
		t.Fatalf("the named index blob exists: %v", err)
	}
	// Differential: the entry answers like a fresh build.
	pattern := leafPatterns(t, d, 2)[0]
	q, err := core.PrepareQuery(pattern, d.Set)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(core.ToWire(core.EvaluateBasic(q, d.Set, d.Doc())))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := server.NewCollection("fresh", orig.Set, []*xmltree.Document{orig.Doc()}, 0, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := core.PrepareQuery(pattern, fresh.Set)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(core.ToWire(core.EvaluateBasic(q2, fresh.Set, fresh.Doc())))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("entry diverged from a fresh build:\ngot  %s\nwant %s", got, want)
	}
}

// TestBlobBackedCatalog round-trips a mapping set through a store blob and
// serves it: the manifest path the daemon takes for persisted sets,
// including the generated fallback document.
func TestBlobBackedCatalog(t *testing.T) {
	dir := t.TempDir()
	cat, err := server.BuildCatalog(manifest(), ".", engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	orig := cat.Get("small")
	blob := dir + "/small.set"
	f, err := os.Create(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveSet(f, orig.Set); err != nil {
		t.Fatal(err)
	}
	f.Close()

	man := &store.Catalog{Entries: []store.CatalogEntry{
		{Name: "frozen", SetPath: "small.set", DocSeed: 5},
	}}
	got, err := server.BuildCatalog(man, dir, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := got.Get("frozen")
	if d == nil {
		t.Fatal("blob-backed dataset missing")
	}
	if d.Set.Len() != orig.Set.Len() {
		t.Errorf("blob round trip lost mappings: %d != %d", d.Set.Len(), orig.Set.Len())
	}
	if d.Doc().Len() == 0 {
		t.Error("generated fallback document is empty")
	}
	// And it must answer a query end to end.
	pattern := leafPatterns(t, d, 2)[0]
	if _, err := core.PrepareQuery(pattern, d.Set); err != nil {
		t.Fatalf("blob-backed dataset cannot prepare %q: %v", pattern, err)
	}
}
