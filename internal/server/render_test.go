package server_test

// Response-path tests: the bodies /v1/query and /v1/batch render
// themselves (internal/server/render.go, core.Append*JSON) must be, byte
// for byte, what encoding/json writes for QueryResponse / BatchResponse
// over the oracle's answer; they carry a Content-Length; the
// capture digest taken from the rendered bytes equals DigestResults of the
// decoded response; and pooled response buffers never leak bytes between
// concurrent responses. The oracle evaluating the queries is
// internal/oracle's: Algorithm 3 over fresh copies of the shard snapshots.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"xmatch/internal/core"
	"xmatch/internal/dataset"
	"xmatch/internal/delta"
	"xmatch/internal/engine"
	"xmatch/internal/oracle"
	"xmatch/internal/server"
	"xmatch/internal/store"
	"xmatch/internal/xmltree"
)

// renderEnv serves the Table III dataset as one document or as a sharded
// collection, capturing every query.
type renderEnv struct {
	ts      *httptest.Server
	srv     *server.Server
	ds      *server.Dataset
	capture string
	o       *oracle.Oracle
}

func newRenderEnv(t *testing.T, shards int) *renderEnv {
	t.Helper()
	man := &store.Catalog{Entries: []store.CatalogEntry{
		{Name: "t3", Dataset: "D7", Mappings: 20, DocNodes: 1600, DocSeed: 7, Shards: shards},
	}}
	capture := filepath.Join(t.TempDir(), "render.capture")
	srv, err := server.New(func() (*server.Catalog, error) {
		return server.BuildCatalog(man, ".", engine.Options{Workers: 4})
	}, server.Options{CapturePath: capture})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &renderEnv{ts: ts, srv: srv, ds: srv.Catalog().Get("t3"), capture: capture, o: oracle.New(t)}
}

func (e *renderEnv) epoch() uint64 {
	var epoch uint64
	for _, sh := range e.ds.Shards() {
		epoch = max(epoch, sh.Live.Snapshot().Epoch)
	}
	return epoch
}

// oracleWire is the oracle's answer to one request over the dataset's
// current shard snapshots, in wire form: the PTQ's for basic and compact,
// the top-k PTQ's for topk.
func oracleWire(o *oracle.Oracle, ds *server.Dataset, pattern, mode string, k int) ([]core.WireResult, []core.WireAnswer) {
	if mode != "topk" {
		k = 0
	}
	var docs []*xmltree.Document
	for _, sn := range ds.Snapshots() {
		docs = append(docs, sn.Doc)
	}
	return o.Wire(ds.Set, pattern, k, docs...)
}

// oracleJSON is oracleWire as the JSON a response's results and answers
// serve as.
func oracleJSON(t *testing.T, o *oracle.Oracle, ds *server.Dataset, pattern, mode string, k int) (results, answers []byte) {
	t.Helper()
	rs, as := oracleWire(o, ds, pattern, mode, k)
	results, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	answers, err = json.Marshal(as)
	if err != nil {
		t.Fatal(err)
	}
	return results, answers
}

// encoded is v as json.Encoder writes it — what the server used to send.
func encoded(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertSized checks the response was sent whole, not chunk-framed.
func assertSized(t *testing.T, label string, resp *http.Response, body []byte) {
	t.Helper()
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("%s: Content-Length %d (transfer encoding %v) for a body of %d bytes",
			label, resp.ContentLength, resp.TransferEncoding, len(body))
	}
}

var renderModes = []struct {
	mode string
	k    int
}{{"basic", 0}, {"compact", 0}, {"topk", 5}}

// TestRenderedBodiesMatchEncodingJSON is the renderer's byte differential:
// Table III × basic/compact/topk × one document and four shards × before
// and after a mutation, on /v1/query (with and without EXPLAIN) and
// /v1/batch. It also pins the capture digest: every record's digest, hashed
// from the rendered bytes, equals DigestResults of the decoded response.
func TestRenderedBodiesMatchEncodingJSON(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			env := newRenderEnv(t, shards)
			var served []uint64 // DigestResults of every decoded /v1/query response, in order
			check := func(phase string) {
				epoch := env.epoch()
				var batch server.BatchRequest
				var wantBatch server.BatchResponse
				for _, spec := range dataset.Queries() {
					for _, mk := range renderModes {
						label := fmt.Sprintf("%s %s %s/%d", phase, spec.ID, mk.mode, mk.k)
						results, answers := oracleWire(env.o, env.ds, spec.Text, mk.mode, mk.k)
						want := server.QueryResponse{Dataset: "t3", Pattern: spec.Text, Mode: mk.mode, K: mk.k,
							Epoch: epoch, Results: results, Answers: answers}
						req := server.QueryRequest{Dataset: "t3", Pattern: spec.Text, Mode: mk.mode, K: mk.k}

						resp, body := postJSON(t, env.ts.URL+"/v1/query", req)
						if resp.StatusCode != http.StatusOK {
							t.Fatalf("%s: status %d: %s", label, resp.StatusCode, body)
						}
						assertSized(t, label, resp, body)
						if !bytes.Equal(body, encoded(t, want)) {
							t.Fatalf("%s: body differs from encoding/json over the oracle:\ngot  %s\nwant %s", label, body, encoded(t, want))
						}
						served = append(served, server.DigestResults(results, answers))

						// EXPLAIN carries timings, so its bytes are held to
						// the decode → encode round trip, and everything
						// around it to the oracle.
						resp, body = postJSON(t, env.ts.URL+"/v1/query?explain=1", req)
						if resp.StatusCode != http.StatusOK {
							t.Fatalf("%s explain: status %d: %s", label, resp.StatusCode, body)
						}
						assertSized(t, label+" explain", resp, body)
						var got server.QueryResponse
						if err := json.Unmarshal(body, &got); err != nil {
							t.Fatalf("%s explain: %v", label, err)
						}
						if !bytes.Equal(body, encoded(t, got)) {
							t.Fatalf("%s explain: body is not what encoding/json writes for its own decoding:\ngot  %s\nwant %s", label, body, encoded(t, got))
						}
						if got.Explain == nil || !hasSpan(got.Explain, "aggregate") || !hasSpan(got.Explain, "encode") {
							t.Fatalf("%s explain: trace lacks the aggregate/encode spans: %+v", label, got.Explain)
						}
						got.Explain = nil
						if !bytes.Equal(encoded(t, got), encoded(t, want)) {
							t.Fatalf("%s explain: payload differs from the oracle", label)
						}
						served = append(served, server.DigestResults(results, answers))

						if mk.mode != "basic" { // a batch member is compact (k = 0) or top-k
							batch.Queries = append(batch.Queries, server.BatchQuery{Pattern: spec.Text, K: mk.k})
							wantBatch.Responses = append(wantBatch.Responses, server.BatchAnswer{Pattern: spec.Text, K: mk.k, Results: results, Answers: answers})
						}
					}
				}
				// One member that fails to prepare: null results/answers and
				// an error string in the middle of the rendered array.
				const bad = "Order/NoSuchElement"
				_, err := core.PrepareQuery(bad, env.ds.Set)
				if err == nil {
					t.Fatalf("%q prepared", bad)
				}
				batch.Dataset, wantBatch.Dataset, wantBatch.Epoch = "t3", "t3", epoch
				batch.Queries = slices.Insert(batch.Queries, 3, server.BatchQuery{Pattern: bad, K: 2})
				wantBatch.Responses = slices.Insert(wantBatch.Responses, 3, server.BatchAnswer{Pattern: bad, K: 2, Error: err.Error()})
				resp, body := postJSON(t, env.ts.URL+"/v1/batch", batch)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s batch: status %d: %s", phase, resp.StatusCode, body)
				}
				assertSized(t, phase+" batch", resp, body)
				if !bytes.Equal(body, encoded(t, wantBatch)) {
					t.Fatalf("%s batch: body differs from encoding/json over the oracle:\ngot  %s\nwant %s", phase, body, encoded(t, wantBatch))
				}
			}

			check("pristine")
			// Rewrite a text the answers carry, on the first and the last
			// shard, with everything the string escaper has a case for that
			// survives a JSON request (invalid UTF-8 does not).
			results, _ := oracleWire(env.o, env.ds, dataset.Queries()[1].Text, "compact", 0)
			path := ""
			for _, r := range results {
				if len(r.Matches) > 0 {
					bs := r.Matches[0].Bindings
					path = bs[len(bs)-1].Path
					break
				}
			}
			if path == "" {
				t.Fatal("Q2 has no match to mutate")
			}
			const nasty = "<a href=\"x\">R&D</a>\\ \u2028\u2029\x01\t\n é日本 \x7f"
			for _, shard := range []int{0, shards - 1} {
				resp, _, msg := mutateBody(t, env.ts.URL, server.MutateRequest{Dataset: "t3", Shard: shard, Edits: []delta.Edit{
					{Op: delta.OpSetText, Path: path, Text: nasty},
				}})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("mutate shard %d: status %d: %s", shard, resp.StatusCode, msg)
				}
			}
			results, _ = oracleWire(env.o, env.ds, dataset.Queries()[1].Text, "compact", 0)
			if !bytes.Contains(encoded(t, results), []byte(`\u003ca href=\"x\"\u003eR\u0026D`)) {
				t.Fatal("the rewritten text is in no Q2 answer; the mutated phase would not exercise the escaper")
			}
			check("mutated")

			if err := env.srv.Close(); err != nil {
				t.Fatal(err)
			}
			w, err := store.LoadWorkloadFile(env.capture)
			if err != nil {
				t.Fatal(err)
			}
			if len(w.Records) != len(served) {
				t.Fatalf("captured %d records, served %d queries", len(w.Records), len(served))
			}
			for i, rec := range w.Records {
				if rec.Digest != served[i] {
					t.Fatalf("record %d (%s %s k=%d): captured digest %016x, DigestResults of the response %016x",
						i, rec.Pattern, rec.Mode, rec.K, rec.Digest, served[i])
				}
			}
		})
	}
}

func hasSpan(ex *server.ExplainData, name string) bool {
	for _, sp := range ex.Trace.Spans {
		if sp.Name == name {
			return true
		}
	}
	return false
}

// TestPooledBodiesDoNotLeak hammers the handler from many goroutines with
// queries whose bodies differ in length and content, so response buffers
// move between requests of different sizes constantly; every body must be
// exactly the one the same request got when it ran alone. Meaningful under
// -race, where a buffer still being written while its next user renders
// into it is reported even if the bytes happen to agree.
func TestPooledBodiesDoNotLeak(t *testing.T) {
	env := newRenderEnv(t, 1)
	type call struct {
		path string
		body []byte
		want []byte
	}
	serve := func(c call) []byte {
		r := httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(c.body))
		w := httptest.NewRecorder()
		env.srv.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			return []byte(fmt.Sprintf("status %d: %s", w.Code, w.Body.Bytes()))
		}
		return w.Body.Bytes()
	}
	var calls []call
	var batch server.BatchRequest
	batch.Dataset = "t3"
	for _, spec := range dataset.Queries() {
		for _, mk := range renderModes {
			body, err := json.Marshal(server.QueryRequest{Dataset: "t3", Pattern: spec.Text, Mode: mk.mode, K: mk.k})
			if err != nil {
				t.Fatal(err)
			}
			calls = append(calls, call{path: "/v1/query", body: body})
		}
		batch.Queries = append(batch.Queries, server.BatchQuery{Pattern: spec.Text})
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	calls = append(calls, call{path: "/v1/batch", body: body})
	for i := range calls {
		calls[i].want = serve(calls[i])
		if !json.Valid(calls[i].want) {
			t.Fatalf("call %d: %s", i, calls[i].want)
		}
	}

	const workers, rounds = 8, 6
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds*len(calls); i++ {
				c := calls[(i*(2*g+1)+g)%len(calls)] // each goroutine walks the calls in its own order
				if got := serve(c); !bytes.Equal(got, c.want) {
					t.Errorf("goroutine %d, %s %s: body differs from the one served alone (%d bytes, want %d)",
						g, c.path, c.body, len(got), len(c.want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
