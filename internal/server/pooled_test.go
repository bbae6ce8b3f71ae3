package server_test

// The pooled request's lifetime: what a request leaves on the pooled value
// it ran on — its trace, its deadline — must reach neither the trace log's
// copy of it nor the next request to get the value.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"xmatch/internal/delta"
	"xmatch/internal/engine"
	"xmatch/internal/obs"
	"xmatch/internal/server"
)

// pooledServer serves repManifest's two datasets (a three-shard "orders",
// a one-shard "small") in process.
func pooledServer(t *testing.T, opts server.Options) *server.Server {
	t.Helper()
	opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, err := server.New(func() (*server.Catalog, error) {
		return server.BuildCatalog(repManifest(), ".", engine.Options{Workers: 2})
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// serveRecorded sends one body through the handler and returns the recorder.
func serveRecorded(ctx context.Context, srv *server.Server, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx))
	return rec
}

// stagesTile checks that a trace's stage spans — every span but the nested
// ones — are want, in order, and tile the request: each starts where the
// one before ended and the last ends with the request, to the microsecond
// the offsets are floored to.
func stagesTile(tr obs.TraceData, want []string) error {
	nested := map[string]bool{"shard_evaluate": true, "replica_sync": true, "resolve": true, "commit": true, "index": true, "log": true}
	var names []string
	var end int64
	for _, sp := range tr.Spans {
		if nested[sp.Name] {
			continue
		}
		if sp.StartUs < end || sp.StartUs > end+1 {
			return fmt.Errorf("stage %s starts at %d µs, the one before ended at %d: %+v", sp.Name, sp.StartUs, end, tr.Spans)
		}
		names = append(names, sp.Name)
		end = sp.StartUs + sp.DurUs
	}
	if !slices.Equal(names, want) {
		return fmt.Errorf("stages %v, want %v", names, want)
	}
	if end < tr.DurUs-1 || end > tr.DurUs {
		return fmt.Errorf("the last stage ends at %d µs, the request at %d", end, tr.DurUs)
	}
	return nil
}

// TestPooledRequestTraceIntact: eight clients send queries, batches and
// mutations over two datasets with every trace retained, while the trace
// log is scraped. Every retained trace must be one a client was answered
// under, once, and hold that request's own stages, tiled, and its own
// dataset and endpoint labels: a trace begun again on a pooled request
// before the log copied it would show another request's spans or labels.
// Run under -race in CI.
func TestPooledRequestTraceIntact(t *testing.T) {
	srv := pooledServer(t, server.Options{TraceThreshold: time.Nanosecond, MaxInflight: 64})
	orders, small := srv.Catalog().Get("orders"), srv.Catalog().Get("small")
	type kind struct {
		path, dataset, endpoint string
		body                    []byte
		stages                  []string
	}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	query := []string{"decode", "prepare", "evaluate", "aggregate", "encode", "write"}
	kinds := []kind{
		{"/v1/query", "orders", "query", marshal(server.QueryRequest{Dataset: "orders", Pattern: firstLeafPattern(orders), Mode: "topk", K: 3}), query},
		{"/v1/batch", "orders", "batch", marshal(server.BatchRequest{Dataset: "orders", Queries: []server.BatchQuery{{Pattern: firstLeafPattern(orders)}, {Pattern: firstLeafPattern(orders), K: 2}}}),
			[]string{"decode", "evaluate", "aggregate", "encode", "write"}},
		{"/v1/admin/mutate", "small", "mutate", marshal(server.MutateRequest{Dataset: "small", Edits: []delta.Edit{{Op: delta.OpSetText, Path: textPath(t, small), Text: "pooled"}}}),
			[]string{"decode", "apply", "write"}},
		{"/v1/query", "small", "query", marshal(server.QueryRequest{Dataset: "small", Pattern: firstLeafPattern(small)}), query},
	}

	const clients = 8
	var mu sync.Mutex
	issued := map[string]int{} // request ID -> kind
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := kinds[c%len(kinds)]
			for i := 0; i < 30; i++ {
				rec := serveRecorded(context.Background(), srv, k.path, k.body)
				id := rec.Header().Get("X-Request-Id")
				if rec.Code != http.StatusOK || id == "" {
					t.Errorf("client %d request %d: status %d, id %q: %s", c, i, rec.Code, id, rec.Body)
					return
				}
				mu.Lock()
				if _, dup := issued[id]; dup {
					t.Errorf("request ID %s issued twice", id)
				}
				issued[id] = c % len(kinds)
				mu.Unlock()
			}
		}()
	}
	scrape := func() []obs.TraceData {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/debug/traces", nil))
		var body struct {
			Traces []obs.TraceData `json:"traces"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Error(err)
		}
		return body.Traces
	}
	retained := map[string]obs.TraceData{}
	done := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, tr := range scrape() {
				retained[tr.ID] = tr
			}
		}
	}()
	wg.Wait()
	close(done)
	<-scraped
	for _, tr := range scrape() {
		retained[tr.ID] = tr
	}
	if len(retained) < 64 {
		t.Fatalf("%d traces retained, want at least the log's 64", len(retained))
	}
	for id, tr := range retained {
		ki, ok := issued[id]
		if !ok {
			t.Errorf("retained trace %s answers no request", id)
			continue
		}
		k := kinds[ki]
		if tr.Dataset != k.dataset || tr.Endpoint != k.endpoint {
			t.Errorf("trace %s of a %s request on %s is labelled %s on %s", id, k.endpoint, k.dataset, tr.Endpoint, tr.Dataset)
		}
		if err := stagesTile(tr, k.stages); err != nil {
			t.Errorf("trace %s (%s on %s): %v", id, k.endpoint, k.dataset, err)
		}
	}
}

// TestPooledDeadlineNotInherited: on one P, where the pool hands back the
// request value that just ran, a request that timed out leaves the next
// hundred requests their own deadlines — each answers 200 — a request
// whose client went away still says so, and one whose client's own
// deadline came first says the deadline was exceeded; after each, the next
// hundred answer 200 again.
func TestPooledDeadlineNotInherited(t *testing.T) {
	srv := pooledServer(t, server.Options{QueryTimeout: 10 * time.Second, MinEpochWait: 10 * time.Second})
	orders := srv.Catalog().Get("orders")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	marshal := func(req server.QueryRequest) []byte {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ok := marshal(server.QueryRequest{Dataset: "orders", Pattern: firstLeafPattern(orders), Mode: "topk", K: 2})
	serveHundred := func(after string) {
		t.Helper()
		for i := 0; i < 100; i++ {
			if rec := serveRecorded(context.Background(), srv, "/v1/query", ok); rec.Code != http.StatusOK {
				t.Fatalf("request %d after %s: status %d: %s", i, after, rec.Code, rec.Body)
			}
		}
	}
	timeout := func(ctx context.Context, timeoutMs int64, want string) {
		t.Helper()
		blocked := marshal(server.QueryRequest{Dataset: "orders", Pattern: firstLeafPattern(orders), MinEpoch: 1 << 40, TimeoutMs: timeoutMs})
		rec := serveRecorded(ctx, srv, "/v1/query", blocked)
		var tr server.TimeoutResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &tr); rec.Code != http.StatusServiceUnavailable || err != nil {
			t.Fatalf("status %d, want 503: %v: %s", rec.Code, err, rec.Body)
		}
		if tr.Stage != "await_epoch" || !strings.HasPrefix(tr.Error, want) {
			t.Fatalf("503 %+v, want %q during await_epoch", tr, want)
		}
	}

	timeout(context.Background(), 5, "request deadline exceeded")
	serveHundred("a timeout")
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(5*time.Millisecond, cancel)
	timeout(ctx, 0, "request canceled by client")
	serveHundred("a client's cancellation")
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	timeout(ctx, 0, "request deadline exceeded")
	serveHundred("a client's deadline")
}
