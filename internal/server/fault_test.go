package server_test

// End-to-end tests for the request fault-tolerance layer: deadline
// enforcement (503 with a structured body), overload shedding (429 with
// Retry-After), readiness flipping for graceful shutdown, and the
// invariant the whole layer exists for — a storm of expired requests
// leaves zero admission slots and zero engine slots occupied.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"xmatch/internal/obs"
	"xmatch/internal/server"
)

// admission reads the gate's occupancy off a scrape.
func admission(t *testing.T, ms []obs.ExpositionMetric) (inFlight, queued float64) {
	t.Helper()
	return mustValue(t, ms, "xmatch_admission_in_flight"), mustValue(t, ms, "xmatch_admission_queue_depth")
}

// TestQueryTimeoutAnswers503 drives a query into the epoch-wait path with
// a min_epoch the dataset will never reach and a tight timeout_ms: the
// deadline must fire during the wait and come back as a structured 503.
func TestQueryTimeoutAnswers503(t *testing.T) {
	env := newTestEnv(t, server.Options{MinEpochWait: 2 * time.Second})
	fx := env.fixtures[1]
	resp, body := postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{
		Dataset:   fx.name,
		Pattern:   fx.queries[0],
		MinEpoch:  1 << 40,
		TimeoutMs: 40,
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	var tr server.TimeoutResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("503 body is not a TimeoutResponse: %v: %s", err, body)
	}
	if tr.Stage != "await_epoch" {
		t.Fatalf("stage %q, want await_epoch", tr.Stage)
	}
	if tr.TimeoutMs != 40 {
		t.Fatalf("timeoutMs %v, want 40", tr.TimeoutMs)
	}
	if tr.RequestID == "" {
		t.Fatal("timeout response lost its request ID")
	}
	if v := mustValue(t, scrapeStatsz(t, env.ts.URL), "xmatch_requests_timeout"); v < 1 {
		t.Fatalf("stats timeouts %v, want >= 1", v)
	}
	mresp, err := http.Get(env.ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, _ := io.ReadAll(mresp.Body)
	if !bytes.Contains(metrics, []byte("xmatch_requests_timeout")) {
		t.Fatal("/metricsz does not expose xmatch_requests_timeout")
	}
}

// TestTimeoutMsCannotExtendServerDeadline pins the tighten-only contract:
// a huge per-request timeout_ms is still capped by -query-timeout.
func TestTimeoutMsCannotExtendServerDeadline(t *testing.T) {
	env := newTestEnv(t, server.Options{
		QueryTimeout: 50 * time.Millisecond,
		MinEpochWait: 2 * time.Second,
	})
	fx := env.fixtures[1]
	start := time.Now()
	resp, body := postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{
		Dataset:   fx.name,
		Pattern:   fx.queries[0],
		MinEpoch:  1 << 40,
		TimeoutMs: 60_000,
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("server deadline did not cap timeout_ms: request ran %v", took)
	}
}

// TestOverloadSheds429 fills the one admission slot and the one queue
// seat with epoch-blocked queries, then asserts the next request is shed
// with 429 + Retry-After — and that canceling the blockers drains the
// gate back to zero.
func TestOverloadSheds429(t *testing.T) {
	env := newTestEnv(t, server.Options{
		MaxInflight:  1,
		MaxQueue:     1,
		QueryTimeout: 10 * time.Second,
		MinEpochWait: 10 * time.Second,
	})
	fx := env.fixtures[1]
	blocked, _ := json.Marshal(server.QueryRequest{
		Dataset:  fx.name,
		Pattern:  fx.queries[0],
		MinEpoch: 1 << 40,
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
				env.ts.URL+"/v1/query", bytes.NewReader(blocked))
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	waitForStats(t, env, func(ms []obs.ExpositionMetric) bool {
		inFlight, queued := admission(t, ms)
		return inFlight == 1 && queued == 1
	})

	resp, body := postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{
		Dataset: fx.name,
		Pattern: fx.queries[0],
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", resp.Header.Get("Retry-After"))
	}
	if !bytes.Contains(body, []byte("overloaded")) {
		t.Fatalf("shed body: %s", body)
	}
	if v := mustValue(t, scrapeStatsz(t, env.ts.URL), "xmatch_requests_shed_total"); v < 1 {
		t.Fatalf("stats shed %v, want >= 1", v)
	}

	cancel()
	wg.Wait()
	waitForStats(t, env, func(ms []obs.ExpositionMetric) bool {
		inFlight, queued := admission(t, ms)
		return inFlight == 0 && queued == 0
	})
}

// TestTimeoutMsBoundsQueueWait: a request waiting for an admission slot
// waits under its own timeout_ms, not only the server-wide deadline —
// the body is decoded and the deadline set before the request queues.
// The one slot is held by an epoch-blocked query; a query with timeout_ms
// 40 must leave the queue with the queued-stage 503 long before the
// server's 3 s bound.
func TestTimeoutMsBoundsQueueWait(t *testing.T) {
	env := newTestEnv(t, server.Options{
		MaxInflight:  1,
		QueryTimeout: 3 * time.Second,
		MinEpochWait: 10 * time.Second,
	})
	fx := env.fixtures[1]
	blocked, _ := json.Marshal(server.QueryRequest{
		Dataset:  fx.name,
		Pattern:  fx.queries[0],
		MinEpoch: 1 << 40,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, env.ts.URL+"/v1/query", bytes.NewReader(blocked))
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitForStats(t, env, func(ms []obs.ExpositionMetric) bool {
		inFlight, _ := admission(t, ms)
		return inFlight == 1
	})

	start := time.Now()
	resp, body := postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{
		Dataset:   fx.name,
		Pattern:   fx.queries[0],
		TimeoutMs: 40,
	})
	took := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d after %v, want 503: %s", resp.StatusCode, took, body)
	}
	var tr server.TimeoutResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("503 body is not a TimeoutResponse: %v: %s", err, body)
	}
	if tr.Stage != "queued" || tr.TimeoutMs != 40 {
		t.Fatalf("stage %q timeoutMs %v, want queued and 40", tr.Stage, tr.TimeoutMs)
	}
	if took > time.Second {
		t.Fatalf("queued request answered after %v; its timeout_ms was 40 ms", took)
	}

	cancel()
	<-done
	waitForStats(t, env, func(ms []obs.ExpositionMetric) bool {
		inFlight, queued := admission(t, ms)
		return inFlight == 0 && queued == 0
	})
}

// TestCancelStormDrainsAdmission fires a storm of requests that all
// expire — more than the gate can hold, so every path is exercised:
// admitted-then-timed-out, queued-then-timed-out, and shed. Afterwards
// the gate and every dataset engine must be fully drained.
func TestCancelStormDrainsAdmission(t *testing.T) {
	env := newTestEnv(t, server.Options{
		MaxInflight:  2,
		MaxQueue:     4,
		QueryTimeout: 10 * time.Second,
		MinEpochWait: 10 * time.Second,
	})
	fx := env.fixtures[1]

	var wg sync.WaitGroup
	codes := make(chan int, 16)
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{
				Dataset:   fx.name,
				Pattern:   fx.queries[0],
				MinEpoch:  1 << 40,
				TimeoutMs: 50,
			})
			_ = body
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)

	var timedOut, shed int
	for code := range codes {
		switch code {
		case http.StatusServiceUnavailable:
			timedOut++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("storm request got %d, want 503 or 429", code)
		}
	}
	if timedOut == 0 {
		t.Fatal("no storm request timed out")
	}
	t.Logf("storm: %d timed out, %d shed", timedOut, shed)

	waitForStats(t, env, func(ms []obs.ExpositionMetric) bool {
		inFlight, queued := admission(t, ms)
		return inFlight == 0 && queued == 0
	})
	for _, fx := range env.fixtures {
		if busy := fx.ds.Engine.Busy(); busy != 0 {
			t.Fatalf("dataset %s engine holds %d slots after the storm", fx.name, busy)
		}
	}
}

// TestReadyzFlipsForShutdown checks the readiness probe contract: ready
// by default, 503 "draining" once shutdown starts, while liveness
// (/healthz) stays green so orchestrators don't kill a draining process.
func TestReadyzFlipsForShutdown(t *testing.T) {
	env := newTestEnv(t, server.Options{})
	get := func(path string) (int, string) {
		resp, err := http.Get(env.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("fresh server /readyz: %d %s", code, body)
	}
	env.srv.SetReady(false)
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining server /readyz: %d %s", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("liveness went red during drain: %d", code)
	}
	if mustValue(t, scrapeStatsz(t, env.ts.URL), "xmatch_ready") != 0 {
		t.Fatal("statsz still reports ready during drain")
	}
	env.srv.SetReady(true)
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("re-readied server /readyz: %d", code)
	}
}

func waitForStats(t *testing.T, env *testEnv, cond func([]obs.ExpositionMetric) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cond(scrapeStatsz(t, env.ts.URL)) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats condition not reached: %+v", scrapeStatsz(t, env.ts.URL))
		}
		time.Sleep(5 * time.Millisecond)
	}
}
