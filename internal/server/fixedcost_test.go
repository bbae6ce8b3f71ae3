package server_test

// The fixed cost of a request: an allocation budget for the warmed top-k
// handler that needs no clock, the per-prepared-query constants against
// their definitions, and a hammer that sends distinct requests through
// everything requests now share — the pooled read-ahead buffers and merger
// tables, the inline trace spans — while the slow-query log is scraped.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"xmatch/internal/dataset"
	"xmatch/internal/engine"
	"xmatch/internal/obs"
	"xmatch/internal/server"
	"xmatch/internal/store"
)

// benchServer is BenchmarkServeQuery's server — Table III's D7 with
// |M| = 100 over the 3,473-node document — with the worker count pinned,
// so that what a request allocates does not depend on the host's CPUs.
func benchServer(t *testing.T, opts server.Options) *server.Server {
	t.Helper()
	man := &store.Catalog{Entries: []store.CatalogEntry{
		{Name: "D7", Dataset: "D7", Mappings: 100, DocNodes: 3473, DocSeed: 42, Tau: 0.2},
	}}
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

// TestTopKRequestAllocBudget: a warmed top-k request (k = 5, averaged over
// the Table III twigs) stays within 75 allocations, evaluation and
// rendering included. The same loop measured ~120 before the request side
// stopped paying for reflection, per-request renderings of per-query
// constants, |M|-sized gather tables and a second context derivation; the
// budget leaves room for the race detector's sync.Pool misses, not for any
// of those to come back.
func TestTopKRequestAllocBudget(t *testing.T) {
	srv := benchServer(t, server.Options{})
	var bodies [][]byte
	for _, q := range dataset.Queries() {
		body, err := json.Marshal(server.QueryRequest{Dataset: "D7", Pattern: q.Text, Mode: "topk", K: 5})
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
	i := 0
	serve := func() {
		w.code = 0
		rr.serve(w, bodies[i%len(bodies)])
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
		i++
	}
	for range bodies {
		serve() // fill the prepared-query cache and the matcher memo
	}
	avg := testing.AllocsPerRun(20*len(bodies), serve)
	t.Logf("allocs/op %.1f", avg)
	if avg > 75 {
		t.Fatalf("a warmed top-k request allocates %.1f times, budget 75", avg)
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
// and mode, send requests through the pooled read-ahead buffers and merger
// tables at once; every response must be the bytes that client's request
// gets when it is alone. Meanwhile /v1/debug/traces is scraped with every
// trace retained: a retained trace is a copy, so whatever a scrape showed
// for a request ID, every later scrape that still holds the ID must show
// again — spans of a finished request may not change under a running one.
// Run under -race in CI.
func TestFixedCostUnderConcurrency(t *testing.T) {
	srv := benchServer(t, server.Options{TraceThreshold: time.Nanosecond, TraceBufferSize: 32})
	serveBody := func(body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	const clients = 8
	var bodies, want [clients][]byte
	for c := range bodies {
		req := server.QueryRequest{Dataset: "D7", Pattern: dataset.Queries()[c].Text, Mode: "topk", K: c + 1}
		switch c % 3 {
		case 1:
			req.Mode, req.K = "compact", 0
		case 2:
			req.Mode, req.K = "basic", 0
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies[c] = body
		code, resp := serveBody(body)
		if code != http.StatusOK {
			t.Fatalf("client %d: status %d: %s", c, code, resp)
		}
		want[c] = resp
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if code, resp := serveBody(bodies[c]); code != http.StatusOK || !bytes.Equal(resp, want[c]) {
					t.Errorf("client %d request %d: status %d, body differs from the one served alone:\ngot  %.200s\nwant %.200s", c, i, code, resp, want[c])
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
				if tr.Endpoint != "query" || tr.Dataset != "D7" || len(tr.Spans) < 5 {
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
