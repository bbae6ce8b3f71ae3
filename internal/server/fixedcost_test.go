package server_test

// The fixed cost of a request: allocation budgets for the warmed top-k and
// compact handlers that need no clock, the per-prepared-query constants
// against their definitions, and a hammer that sends distinct requests through
// everything requests now share — the pooled read-ahead buffers, merger
// tables and results arrays, the pooled request's trace and answers — while
// the slow-query log is scraped.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"xmatch/internal/core"
	"xmatch/internal/dataset"
	"xmatch/internal/engine"
	"xmatch/internal/obs"
	"xmatch/internal/oracle"
	"xmatch/internal/server"
	"xmatch/internal/store"
)

// benchServer is BenchmarkServeQuery's server — Table III's D7 with
// |M| = 100 over the 3,473-node document — with the worker count pinned,
// so that what a request allocates does not depend on the host's CPUs.
func benchServer(t *testing.T, opts server.Options) *server.Server {
	return d7Server(t, store.CatalogEntry{Name: "D7", Dataset: "D7", Mappings: 100, DocNodes: 3473, DocSeed: 42, Tau: 0.2}, opts)
}

func d7Server(t *testing.T, entry store.CatalogEntry, opts server.Options) *server.Server {
	t.Helper()
	man := &store.Catalog{Entries: []store.CatalogEntry{entry}}
	opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, err := server.New(func() (*server.Catalog, error) {
		return server.BuildCatalog(man, ".", engine.Options{Workers: 2})
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// reusedRequest sends bodies through a handler with one request template
// and one resettable body, as bench/harness.go and BenchmarkServeQuery do.
type reusedRequest struct {
	h    http.Handler
	tmpl *http.Request
	body reusedBody
}

type reusedBody struct{ bytes.Reader }

func (*reusedBody) Close() error { return nil }

func (rr *reusedRequest) serve(w http.ResponseWriter, body []byte) {
	rr.body.Reset(body)
	r := *rr.tmpl
	r.Body = &rr.body
	r.ContentLength = int64(len(body))
	rr.h.ServeHTTP(w, &r)
}

// statusWriter keeps the status and drops the body.
type statusWriter struct {
	header http.Header
	code   int
}

func (w *statusWriter) Header() http.Header         { return w.header }
func (w *statusWriter) WriteHeader(code int)        { w.code = code }
func (w *statusWriter) Write(p []byte) (int, error) { return len(p), nil }

// requestCost serves the Table III twigs in one mode through the warmed
// handler on a single P — where a sync.Pool hands back what was just put —
// and returns what one request allocates, in objects and in bytes.
func requestCost(t *testing.T, srv *server.Server, mode string, k int) (allocs, bytes float64) {
	t.Helper()
	var reqs []server.QueryRequest
	for _, q := range dataset.Queries() {
		reqs = append(reqs, server.QueryRequest{Dataset: "D7", Pattern: q.Text, Mode: mode, K: k})
	}
	return requestsCost(t, srv, reqs)
}

// requestsCost is requestCost over a cycle of requests.
func requestsCost(t *testing.T, srv *server.Server, reqs []server.QueryRequest) (allocs, bytes float64) {
	t.Helper()
	var bodies [][]byte
	for _, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	tmpl, err := http.NewRequest(http.MethodPost, "/v1/query", nil)
	if err != nil {
		t.Fatal(err)
	}
	rr := &reusedRequest{h: srv, tmpl: tmpl}
	w := &statusWriter{header: http.Header{}}
	serve := func(i int) {
		w.code = 0
		rr.serve(w, bodies[i%len(bodies)])
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := range 2 * len(bodies) {
		serve(i) // fill the prepared-query cache, the matcher memo and the pools
	}
	runs := 20 * len(bodies)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range runs {
		serve(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestTopKRequestAllocBudget: a warmed top-k request (k = 5, averaged over
// the Table III twigs) stays within 12 allocations and 700 bytes,
// evaluation and rendering included. It measured ~120 allocations before
// the request side stopped paying for reflection, per-request renderings
// of per-query constants, |M|-sized gather tables and a second context
// derivation, and 22 allocations and 2.0 KB while each request built its
// trace, its deadline's context and timer, its engine view, its scatter
// closure and its answers; it reads 8 and ~440 B with those held by the
// pooled request. Under the race detector, which makes sync.Pool drop a
// quarter of what it is given, the budget is 75 allocations.
func TestTopKRequestAllocBudget(t *testing.T) {
	allocs, bytes := requestCost(t, benchServer(t, server.Options{}), "topk", 5)
	t.Logf("allocs/op %.1f, %.0f B/op", allocs, bytes)
	if raceEnabled {
		if allocs > 75 {
			t.Fatalf("a warmed top-k request allocates %.1f times under -race, budget 75", allocs)
		}
		return
	}
	if allocs > 12 || bytes > 700 {
		t.Fatalf("a warmed top-k request allocates %.1f times and %.0f bytes, budget 12 and 700", allocs, bytes)
	}
}

// TestCompactRequestAllocBudget: a warmed compact request — |M| = 100
// results, a body of hundreds of KB — allocates what a top-k request does,
// and at most 1 KB: its results array and its body buffer are handed back,
// not made. It read 8.6 KB/op while Finish allocated the array, and ~2.0 KB
// while the request built its trace, deadline and answers. And when the
// buffer is not there — the pool dropped it — rendering allocates little
// more than the body: one growth per distinct match set, where append's
// doubling cost 4.8 times the body.
func TestCompactRequestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is given")
	}
	srv := benchServer(t, server.Options{})
	topk, _ := requestCost(t, srv, "topk", 5)
	allocs, bytes := requestCost(t, srv, "compact", 0)
	t.Logf("allocs/op %.1f (top-k %.1f), %.0f B/op", allocs, topk, bytes)
	if allocs > topk+2 {
		t.Fatalf("a warmed compact request allocates %.1f times, a top-k one %.1f", allocs, topk)
	}
	if bytes > 1<<10 {
		t.Fatalf("a warmed compact request allocates %.0f bytes, budget 1 KB", bytes)
	}

	ds := srv.Catalog().Get("D7")
	heads := core.NewResultHeads(ds.Set)
	var body, allocated uint64
	for _, spec := range dataset.Queries() {
		q, err := core.PrepareQuery(spec.Text, ds.Set)
		if err != nil {
			t.Fatal(err)
		}
		results := core.Evaluate(q, ds.Set, ds.Doc(), ds.Tree)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rendered := core.AppendResultsJSON(nil, results, heads)
		runtime.ReadMemStats(&after)
		body += uint64(len(rendered))
		allocated += after.TotalAlloc - before.TotalAlloc
	}
	t.Logf("compact results arrays rendered from nil: %d bytes, %d allocated (%.2fx)", body, allocated, float64(allocated)/float64(body))
	if 2*allocated > 3*body {
		t.Fatalf("rendering %d bytes of compact results from nil allocated %d, budget 1.5x", body, allocated)
	}
}

// TestShardedRequestAllocBudget: a warmed request shaped like bench's
// corpus_point — Q1–Q3, compact twice to top-k once, over a four-shard
// collection — allocates at most 1.5 KB. Every unit it needs is in its
// shards' memos, so it makes one lookup per kept result class per shard,
// gathers the shard streams without keying a match, and writes the unit
// outputs into the merger's scratch. It read ~7 KB while each request
// re-ran the plan's joins and re-keyed its decomposition roots, and
// ~2.1 KB while it built its trace, deadline, engine view, scatter and
// answers; it reads ~660 B.
func TestShardedRequestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is given")
	}
	srv := d7Server(t, store.CatalogEntry{Name: "D7", Dataset: "D7", Mappings: 100, DocNodes: 40000, DocSeed: 42, Shards: 4, Tau: 0.2}, server.Options{})
	var reqs []server.QueryRequest
	for _, mk := range []struct {
		mode string
		k    int
	}{{"compact", 0}, {"compact", 0}, {"topk", 5}} {
		for _, q := range dataset.Queries()[:3] {
			reqs = append(reqs, server.QueryRequest{Dataset: "D7", Pattern: q.Text, Mode: mk.mode, K: mk.k})
		}
	}
	allocs, bytes := requestsCost(t, srv, reqs)
	t.Logf("allocs/op %.1f, %.0f B/op", allocs, bytes)
	if bytes > 1.5*1024 {
		t.Fatalf("a warmed four-shard request allocates %.0f bytes, budget 1.5 KB", bytes)
	}
}

// TestPreparedQueryConstants: what a request reads off its prepared query
// instead of rendering — the canonical pattern and the fingerprint derived
// from it — is what the definitions compute, for Table III in every mode,
// and it is what the workload table files the request under.
func TestPreparedQueryConstants(t *testing.T) {
	srv := benchServer(t, server.Options{})
	ds := srv.Catalog().Get("D7")
	type row struct{ Fingerprint, Pattern, Mode string }
	want := map[row]bool{}
	for _, spec := range dataset.Queries() {
		// Spelled with blanks: the canonical form, not the request text,
		// must key the row.
		spaced := " " + spec.Text + " "
		q, err := ds.Engine.Prepare(spaced, ds.Set)
		if err != nil {
			t.Fatal(err)
		}
		if q.Canonical != q.Pattern.String() || q.Canonical != spec.Text {
			t.Fatalf("%s: canonical %q, pattern renders %q, Table III has %q", spec.ID, q.Canonical, q.Pattern.String(), spec.Text)
		}
		for _, mk := range []struct {
			mode string
			k    int
		}{{"basic", 0}, {"compact", 0}, {"topk", 1}, {"topk", 5}} {
			fp := engine.Fingerprint("D7", q, mk.mode, mk.k)
			if fp != engine.FingerprintPattern("D7", q.Pattern.String(), mk.mode, mk.k) {
				t.Fatalf("%s %s k=%d: Fingerprint and FingerprintPattern disagree", spec.ID, mk.mode, mk.k)
			}
			rec := httptest.NewRecorder()
			body, _ := json.Marshal(server.QueryRequest{Dataset: "D7", Pattern: spaced, Mode: mk.mode, K: mk.k})
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s k=%d: status %d: %s", spec.ID, mk.mode, mk.k, rec.Code, rec.Body)
			}
			want[row{fmt.Sprintf("%016x", fp), spec.Text, fmt.Sprintf("%s/%d", mk.mode, mk.k)}] = true
		}
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/debug/workload?n=100", nil))
	var dbg server.WorkloadDebug
	if err := json.Unmarshal(rec.Body.Bytes(), &dbg); err != nil {
		t.Fatal(err)
	}
	got := map[row]bool{}
	for _, e := range dbg.Entries {
		got[row{e.Fingerprint, e.Pattern, fmt.Sprintf("%s/%d", e.Mode, e.K)}] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("workload rows:\ngot  %v\nwant %v", got, want)
	}
}

// TestFixedCostUnderConcurrency: eight clients, each with its own pattern
// and kind of request — top-k, compact, basic, and a batch of the first two
// with a member that fails — send requests through everything requests
// share at once: the pooled read-ahead and body buffers, the merger tables,
// the results arrays the handlers hand back. Every response must be the
// bytes encoding/json writes over the oracle's answer; a results array
// refilled by one request while another still renders from it would show
// here, or to the race detector. Meanwhile /v1/debug/traces is scraped with
// every trace retained: a retained trace is a copy, so whatever a scrape
// showed for a request ID, every later scrape that still holds the ID must
// show again — spans of a finished request may not change under a running
// one. Run under -race in CI.
func TestFixedCostUnderConcurrency(t *testing.T) {
	srv := benchServer(t, server.Options{TraceThreshold: time.Nanosecond})
	ds := srv.Catalog().Get("D7")
	o := oracle.New(t)
	serveBody := func(path string, body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	const clients = 8
	var paths [clients]string
	var bodies, want [clients][]byte
	for c := range bodies {
		pattern := dataset.Queries()[c].Text
		var req, resp any
		paths[c] = "/v1/query"
		switch c % 4 {
		case 3:
			const bad = "Order/NoSuchElement"
			_, err := core.PrepareQuery(bad, ds.Set)
			if err == nil {
				t.Fatalf("%q prepared", bad)
			}
			compact, compactAnswers := oracleWire(o, ds, pattern, "compact", 0)
			topk, topkAnswers := oracleWire(o, ds, pattern, "topk", c)
			paths[c] = "/v1/batch"
			req = server.BatchRequest{Dataset: "D7", Queries: []server.BatchQuery{{Pattern: pattern}, {Pattern: bad}, {Pattern: pattern, K: c}}}
			resp = server.BatchResponse{Dataset: "D7", Responses: []server.BatchAnswer{
				{Pattern: pattern, Results: compact, Answers: compactAnswers},
				{Pattern: bad, Error: err.Error()},
				{Pattern: pattern, K: c, Results: topk, Answers: topkAnswers},
			}}
		default:
			mode, k := [...]string{"topk", "compact", "basic"}[c%4], 0
			if mode == "topk" {
				k = c + 1
			}
			results, answers := oracleWire(o, ds, pattern, mode, k)
			req = server.QueryRequest{Dataset: "D7", Pattern: pattern, Mode: mode, K: k}
			resp = server.QueryResponse{Dataset: "D7", Pattern: pattern, Mode: mode, K: k, Results: results, Answers: answers}
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies[c], want[c] = body, encoded(t, resp)
		if code, got := serveBody(paths[c], body); code != http.StatusOK || !bytes.Equal(got, want[c]) {
			t.Fatalf("client %d alone: status %d, body differs from sequential core:\ngot  %.200s\nwant %.200s", c, code, got, want[c])
		}
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if code, resp := serveBody(paths[c], bodies[c]); code != http.StatusOK || !bytes.Equal(resp, want[c]) {
					t.Errorf("client %d request %d: status %d, body differs from sequential core:\ngot  %.200s\nwant %.200s", c, i, code, resp, want[c])
					return
				}
			}
		}()
	}
	scraped := make(chan error, 1)
	go func() {
		seen := map[string][]obs.Span{}
		for {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/debug/traces", nil))
			var body struct {
				Traces []obs.TraceData `json:"traces"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				scraped <- err
				return
			}
			for _, tr := range body.Traces {
				if (tr.Endpoint != "query" && tr.Endpoint != "batch") || tr.Dataset != "D7" || len(tr.Spans) < 5 {
					scraped <- fmt.Errorf("retained trace %+v lacks endpoint, dataset or spans", tr)
					return
				}
				if prev, ok := seen[tr.ID]; ok && !reflect.DeepEqual(prev, tr.Spans) {
					scraped <- fmt.Errorf("trace %s changed after it was retained:\nwas %+v\nnow %+v", tr.ID, prev, tr.Spans)
					return
				}
				seen[tr.ID] = tr.Spans
			}
			select {
			case <-done:
				scraped <- nil
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(done)
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}
}
