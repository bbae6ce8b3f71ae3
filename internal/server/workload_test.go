package server_test

// Workload-intelligence tests: capture -> replay differential (local and
// remote runners reproduce every captured digest byte-identically),
// /v1/debug/workload accounting, SLO-driven /healthz degradation, EXPLAIN
// selectivity profiles, the pinned /metricsz content type, and the
// timed/request-ID treatment of the checkpoint and replication endpoints.
// The concurrency hammer runs under -race in CI.

import (
	"encoding/json"
	"fmt"
	"math"
	"mime"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"xmatch/internal/delta"
	"xmatch/internal/engine"
	"xmatch/internal/obs"
	"xmatch/internal/server"
	"xmatch/internal/store"
)

// captureEnv builds a serving environment whose queries are captured to a
// temp file, runs the full Table III matrix against the orders dataset,
// and returns the capture path plus the served request count.
func captureEnv(t *testing.T, opts server.Options) (*testEnv, string, int) {
	t.Helper()
	capPath := filepath.Join(t.TempDir(), "queries.capture")
	opts.CapturePath = capPath
	env := newTestEnv(t, opts)
	f := env.fixtures[0]
	served := 0
	for _, q := range f.queries {
		for _, mk := range modeMatrix {
			req := server.QueryRequest{Dataset: f.name, Pattern: q, Mode: mk.mode, K: mk.k}
			resp, body := postJSON(t, env.ts.URL+"/v1/query", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("query %q (%s,k=%d): status %d: %s", q, mk.mode, mk.k, resp.StatusCode, body)
			}
			served++
		}
	}
	return env, capPath, served
}

func TestWorkloadCaptureReplay(t *testing.T) {
	env, capPath, served := captureEnv(t, server.Options{})

	// Close stops capturing; the server keeps serving, so the remote replay below is not
	// re-recorded into the file it is replaying.
	if err := env.srv.Close(); err != nil {
		t.Fatal(err)
	}
	w, err := store.LoadWorkloadFile(capPath)
	if err != nil {
		t.Fatal(err)
	}
	if w.Torn {
		t.Fatal("capture has a torn tail after a clean close")
	}
	if len(w.Records) != served {
		t.Fatalf("captured %d records, served %d", len(w.Records), served)
	}
	for i, rec := range w.Records {
		if rec.Digest == 0 || rec.Fingerprint == 0 || rec.Pattern == "" {
			t.Fatalf("record %d incomplete: %+v", i, rec)
		}
	}

	// Remote replay: against the live daemon that served the capture.
	rep := server.ReplayWorkload(w.Records, server.RemoteReplayRunner(env.ts.URL, nil))
	if rep.Matched != rep.Total || len(rep.Diffs) > 0 {
		t.Fatalf("remote replay: %d/%d matched, diffs %+v", rep.Matched, rep.Total, rep.Diffs)
	}

	// Local replay: a fresh catalog built from the same manifest, driven
	// through the in-process handler. Byte-identical digests assert the
	// whole rebuild-and-serve pipeline reproduces the served answers.
	fresh, err := server.New(func() (*server.Catalog, error) {
		return server.BuildCatalog(manifest(), ".", engine.Options{Workers: 4})
	}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep = server.ReplayWorkload(w.Records, server.HandlerReplayRunner(fresh))
	if rep.Matched != rep.Total || len(rep.Diffs) > 0 {
		t.Fatalf("local replay: %d/%d matched, diffs %+v", rep.Matched, rep.Total, rep.Diffs)
	}
}

func TestWorkloadCaptureSamplingAndBudget(t *testing.T) {
	capPath := filepath.Join(t.TempDir(), "sampled.capture")
	env := newTestEnv(t, server.Options{CapturePath: capPath, CaptureSampleN: 3})
	f := env.fixtures[0]
	const n = 9
	for i := 0; i < n; i++ {
		resp, _ := postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{Dataset: f.name, Pattern: f.queries[0]})
		resp.Body.Close()
	}
	if err := env.srv.Close(); err != nil {
		t.Fatal(err)
	}
	w, err := store.LoadWorkloadFile(capPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Records) != n/3 {
		t.Fatalf("1-in-3 sampling of %d queries captured %d records, want %d", n, len(w.Records), n/3)
	}
	if w.SampleN != 3 {
		t.Fatalf("capture SampleN = %d, want 3", w.SampleN)
	}

	// A tiny budget stops the log after the header; queries still serve.
	tinyPath := filepath.Join(t.TempDir(), "tiny.capture")
	env2 := newTestEnv(t, server.Options{CapturePath: tinyPath, CaptureBudgetBytes: 1})
	f2 := env2.fixtures[0]
	for i := 0; i < 3; i++ {
		resp, _ := postJSON(t, env2.ts.URL+"/v1/query", server.QueryRequest{Dataset: f2.name, Pattern: f2.queries[0]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query under exhausted budget: status %d", resp.StatusCode)
		}
	}
	resp, body := getJSON(t, env2.ts.URL+"/v1/debug/workload")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug workload status %d", resp.StatusCode)
	}
	var dbg server.WorkloadDebug
	if err := json.Unmarshal(body, &dbg); err != nil {
		t.Fatal(err)
	}
	if dbg.Capture == nil || dbg.Capture.DroppedOver != 3 || dbg.Capture.Records != 0 {
		t.Fatalf("budget accounting: %+v", dbg.Capture)
	}
}

func TestWorkloadDebugEndpoint(t *testing.T) {
	env := newTestEnv(t, server.Options{})
	f := env.fixtures[0]
	hot, cold := f.queries[0], f.queries[1]
	for i := 0; i < 3; i++ {
		resp, _ := postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{Dataset: f.name, Pattern: hot})
		resp.Body.Close()
	}
	resp, _ := postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{Dataset: f.name, Pattern: cold, Mode: "topk", K: 2})
	resp.Body.Close()

	resp, body := getJSON(t, env.ts.URL+"/v1/debug/workload")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var dbg server.WorkloadDebug
	if err := json.Unmarshal(body, &dbg); err != nil {
		t.Fatal(err)
	}
	if dbg.Fingerprints != 2 || len(dbg.Entries) != 2 {
		t.Fatalf("fingerprints=%d entries=%d, want 2/2: %s", dbg.Fingerprints, len(dbg.Entries), body)
	}
	top := dbg.Entries[0]
	if top.Requests != 3 || top.Mode != "compact" {
		t.Fatalf("hottest entry %+v, want 3 compact requests", top)
	}
	// The canonical pattern is the prepared rendering, fingerprint-stable
	// across requests; two prepares of the same text share a cache entry.
	if top.PrepareHits < 2 {
		t.Fatalf("hottest entry has %d prepare hits, want >= 2", top.PrepareHits)
	}
	if top.WindowRequests == 0 || top.WindowRequests > top.Requests {
		t.Fatalf("window accounting: %+v", top)
	}
	if top.P50Ms < 0 || top.P95Ms < top.P50Ms || top.P99Ms < top.P95Ms {
		t.Fatalf("quantiles not ordered: %+v", top)
	}
	second := dbg.Entries[1]
	if second.Mode != "topk" || second.K != 2 {
		t.Fatalf("second entry %+v, want the topk query", second)
	}

	// ?n bounds the view.
	resp, body = getJSON(t, env.ts.URL+"/v1/debug/workload?n=1")
	resp.Body.Close()
	if err := json.Unmarshal(body, &dbg); err != nil {
		t.Fatal(err)
	}
	if len(dbg.Entries) != 1 || dbg.Fingerprints != 2 {
		t.Fatalf("n=1 view: entries=%d fingerprints=%d", len(dbg.Entries), dbg.Fingerprints)
	}

	// Wrong method is rejected, bad n is a 400.
	if resp, _ := postJSON(t, env.ts.URL+"/v1/debug/workload", struct{}{}); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status %d, want 405", resp.StatusCode)
	}
	if resp, _ := getJSON(t, env.ts.URL+"/v1/debug/workload?n=zero"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n status %d, want 400", resp.StatusCode)
	}
}

// TestWorkloadKIgnoredOutsideTopK: the evaluators ignore k outside topk
// mode and so does the fingerprint, so the row and the capture records a
// fingerprint files must not carry whichever k its first request happened
// to send. The response still echoes the request's own k.
func TestWorkloadKIgnoredOutsideTopK(t *testing.T) {
	capPath := filepath.Join(t.TempDir(), "k.capture")
	env := newTestEnv(t, server.Options{CapturePath: capPath})
	f := env.fixtures[0]
	for _, k := range []int{7, 0, 7} {
		for _, mode := range []string{"compact", "basic"} {
			resp, body := postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{Dataset: f.name, Pattern: f.queries[0], Mode: mode, K: k})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("mode %s k=%d: status %d: %s", mode, k, resp.StatusCode, body)
			}
			var qr server.QueryResponse
			if err := json.Unmarshal(body, &qr); err != nil {
				t.Fatal(err)
			}
			if qr.K != k {
				t.Fatalf("mode %s: response echoes k=%d, request sent %d", mode, qr.K, k)
			}
		}
	}
	resp, body := getJSON(t, env.ts.URL+"/v1/debug/workload")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var dbg struct {
		Entries []map[string]any `json:"entries"`
	}
	if err := json.Unmarshal(body, &dbg); err != nil {
		t.Fatal(err)
	}
	if len(dbg.Entries) != 2 {
		t.Fatalf("k split the fingerprints: %d rows, want one per mode: %s", len(dbg.Entries), body)
	}
	for _, e := range dbg.Entries {
		if _, has := e["k"]; has || e["requests"] != float64(3) {
			t.Fatalf("row carries a k or missed a request: %v", e)
		}
	}
	if err := env.srv.Close(); err != nil {
		t.Fatal(err)
	}
	w, err := store.LoadWorkloadFile(capPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Records) != 6 {
		t.Fatalf("captured %d records, want 6", len(w.Records))
	}
	for i, rec := range w.Records {
		if rec.K != 0 || rec.Fingerprint != engine.FingerprintPattern(rec.Dataset, rec.Pattern, rec.Mode, 7) {
			t.Fatalf("record %d: k=%d fingerprint %016x under mode %s", i, rec.K, rec.Fingerprint, rec.Mode)
		}
	}
	if rep := server.ReplayWorkload(w.Records, server.HandlerReplayRunner(env.srv)); rep.Matched != rep.Total || len(rep.Diffs) > 0 {
		t.Fatalf("replay: %d/%d matched, diffs %+v", rep.Matched, rep.Total, rep.Diffs)
	}
}

func TestSLOHealthz(t *testing.T) {
	// Objective 0.5 with a 1ms target: requests that spend ~30ms waiting
	// for an unreachable epoch are guaranteed misses, so the budget burns
	// at rate 2 once every windowed request misses.
	env := newTestEnv(t, server.Options{
		SLOTarget:    time.Millisecond,
		SLOObjective: 0.5,
		MinEpochWait: 30 * time.Millisecond,
	})
	f := env.fixtures[0]

	type sloBody struct {
		Status string `json:"status"`
		SLO    *struct {
			BurnRate       float64 `json:"burnRate"`
			BadFraction    float64 `json:"badFraction"`
			WindowRequests uint64  `json:"windowRequests"`
			TargetMs       float64 `json:"targetMs"`
		} `json:"slo"`
	}
	readHealthz := func() (int, sloBody) {
		t.Helper()
		resp, raw := getJSON(t, env.ts.URL+"/healthz")
		var b sloBody
		if err := json.Unmarshal(raw, &b); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	code, b := readHealthz()
	if code != http.StatusOK || b.Status != "ok" {
		t.Fatalf("pre-traffic healthz: %d %q", code, b.Status)
	}
	if b.SLO == nil || b.SLO.TargetMs != 1 || b.SLO.BurnRate != 0 {
		t.Fatalf("pre-traffic slo detail: %+v", b.SLO)
	}

	for i := 0; i < 4; i++ {
		resp, _ := postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{
			Dataset: f.name, Pattern: f.queries[0], MinEpoch: 1 << 40,
		})
		if resp.StatusCode != http.StatusPreconditionFailed {
			t.Fatalf("unreachable min_epoch: status %d, want 412", resp.StatusCode)
		}
	}

	code, b = readHealthz()
	// Latency degradation is an operator alert, not a liveness failure:
	// the status flips but the 200 keeps the replica in rotation.
	if code != http.StatusOK {
		t.Fatalf("degraded healthz answered %d, want 200", code)
	}
	if b.Status != "degraded" || b.SLO == nil || b.SLO.BurnRate <= 1 {
		t.Fatalf("after misses: status %q slo %+v, want degraded with burn > 1", b.Status, b.SLO)
	}
	if b.SLO.BadFraction != 1 || b.SLO.WindowRequests != 4 {
		t.Fatalf("window accounting: %+v", b.SLO)
	}

	// The same burn rate is scraped on /metricsz.
	ms := scrapeMetrics(t, env.ts.URL)
	if v, ok := metricValue(ms, "xmatch_slo_burn_rate"); !ok || v <= 1 {
		t.Fatalf("xmatch_slo_burn_rate = %v (present %v), want > 1", v, ok)
	}
}

func TestQueryExplainProfiles(t *testing.T) {
	env := newTestEnv(t, server.Options{})
	f := env.fixtures[0]
	resp, body := postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{
		Dataset: f.name, Pattern: f.queries[0], Explain: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Explain == nil || len(qr.Explain.Shards) == 0 {
		t.Fatal("no explain block")
	}
	profiles := qr.Explain.Shards[0].Profiles
	if len(profiles) == 0 {
		t.Fatal("EXPLAIN carries no selectivity profiles")
	}
	for _, pp := range profiles {
		if pp.Evals == 0 || pp.Candidates == 0 {
			t.Fatalf("profile without observations: %+v", pp)
		}
		if pp.Selectivity < 0 || pp.Selectivity > 1 {
			t.Fatalf("selectivity out of range: %+v", pp)
		}
		if pp.ReachSurvivors > pp.UsefulSurvivors || pp.UsefulSurvivors > pp.Candidates {
			t.Fatalf("funnel not monotone: %+v", pp)
		}
	}
}

func TestMetricszContentType(t *testing.T) {
	env := newTestEnv(t, server.Options{})
	resp, err := http.Get(env.ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ct := resp.Header.Get("Content-Type")
	mediaType, params, err := mime.ParseMediaType(ct)
	if err != nil {
		t.Fatalf("Content-Type %q does not parse: %v", ct, err)
	}
	if mediaType != "text/plain" {
		t.Fatalf("media type %q, want text/plain", mediaType)
	}
	if params["version"] != "0.0.4" {
		t.Fatalf("exposition version %q, want 0.0.4 (Content-Type %q)", params["version"], ct)
	}
	if params["charset"] != "utf-8" {
		t.Fatalf("charset %q, want utf-8", params["charset"])
	}
}

// TestSLOHealthzObjectiveBounds: an objective outside (0, 1) leaves no
// error budget (or a negative one), so New refuses it before loading
// anything. The tightest objective it accepts burns fast but finitely,
// and /healthz and /statsz keep serving whole bodies.
func TestSLOHealthzObjectiveBounds(t *testing.T) {
	loader := func() (*server.Catalog, error) {
		t.Error("loader ran for a refused configuration")
		return nil, nil
	}
	for _, o := range []float64{1, 1.5, -0.1} {
		if _, err := server.New(loader, server.Options{SLOTarget: time.Nanosecond, SLOObjective: o}); err == nil {
			t.Errorf("New accepted SLO objective %v", o)
		}
	}

	env := newTestEnv(t, server.Options{
		SLOTarget:    time.Nanosecond,
		SLOObjective: 0.999,
		MinEpochWait: 30 * time.Millisecond,
	})
	f := env.fixtures[0]
	for i := 0; i < 3; i++ {
		// An unreachable epoch holds each request past every bucket bound
		// the 1ns target could round up to: three sure misses.
		postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{Dataset: f.name, Pattern: f.queries[0], MinEpoch: 1 << 40})
	}
	resp, raw := getJSON(t, env.ts.URL+"/healthz")
	var b struct {
		Status string `json:"status"`
		SLO    struct {
			BurnRate float64 `json:"burnRate"`
		} `json:"slo"`
	}
	if err := json.Unmarshal(raw, &b); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d body %q (%v)", resp.StatusCode, raw, err)
	}
	if b.Status != "degraded" || math.Abs(b.SLO.BurnRate-1000) > 1e-6 {
		t.Fatalf("healthz status %q burn %v, want degraded at 1000 (every request bad, 0.001 budget)", b.Status, b.SLO.BurnRate)
	}
	if v := mustValue(t, scrapeStatsz(t, env.ts.URL), "xmatch_slo_burn_rate"); v != b.SLO.BurnRate {
		t.Fatalf("statsz burn rate %v, healthz %v", v, b.SLO.BurnRate)
	}
}

func TestTimedReplication(t *testing.T) {
	man := manifest()
	env := newTestEnv(t, server.Options{
		Manifest:       func() (*store.Catalog, error) { return man, nil },
		TraceThreshold: time.Nanosecond,
	})

	// The replication surface runs under the timed wrapper: request IDs
	// are minted, methods enforced, and the replicate counter moves.
	resp, err := http.Get(env.ts.URL + "/v1/replicate/manifest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("replicate manifest response lacks X-Request-Id")
	}
	if resp, _ := postJSON(t, env.ts.URL+"/v1/replicate/manifest", struct{}{}); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST manifest status %d, want 405", resp.StatusCode)
	}

	// Checkpoint: wrong method 405, a real call mints an ID and counts.
	resp, err = http.Get(env.ts.URL + "/v1/admin/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET checkpoint status %d, want 405", resp.StatusCode)
	}
	resp, _ = postJSON(t, env.ts.URL+"/v1/admin/checkpoint", server.CheckpointRequest{Dataset: "orders"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("checkpoint response lacks X-Request-Id")
	}

	ms := scrapeMetrics(t, env.ts.URL)
	for _, ep := range []string{"replicate", "checkpoint"} {
		if v, ok := metricValue(ms, "xmatch_http_requests_total", epLabel(ep)); !ok || v != 1 {
			t.Fatalf("xmatch_http_requests_total{endpoint=%q} = %v (present %v), want 1", ep, v, ok)
		}
		if v, ok := metricValue(ms, "xmatch_http_request_seconds_count", epLabel(ep)); !ok || v != 1 {
			t.Fatalf("%s latency histogram count %v (present %v), want 1", ep, v, ok)
		}
	}

	// The traces of the dataset-addressed endpoints carry the dataset and
	// their stage spans: the checkpoint above, and a stream and a
	// checkpoint pull now.
	ids := map[string]string{resp.Header.Get("X-Request-Id"): "checkpoint"}
	resp, _ = postJSON(t, env.ts.URL+"/v1/replicate/stream", map[string]any{"dataset": "orders", "shard": 0, "from": 0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	ids[resp.Header.Get("X-Request-Id")] = "replicate"
	resp, _ = getJSON(t, env.ts.URL+"/v1/replicate/checkpoint?dataset=orders")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint pull status %d", resp.StatusCode)
	}
	ids[resp.Header.Get("X-Request-Id")] = "replicate"
	_, raw := getJSON(t, env.ts.URL+"/v1/debug/traces")
	var traces struct {
		Traces []obs.TraceData `json:"traces"`
	}
	if err := json.Unmarshal(raw, &traces); err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces.Traces {
		ep, ok := ids[tr.ID]
		if !ok {
			continue
		}
		delete(ids, tr.ID)
		if tr.Endpoint != ep || tr.Dataset != "orders" || len(tr.Spans) == 0 {
			t.Errorf("%s trace: endpoint %q, dataset %q, spans %+v; want %s, orders and its stage spans", ep, tr.Endpoint, tr.Dataset, tr.Spans, ep)
		}
	}
	if len(ids) != 0 {
		t.Fatalf("traces not retained: %v", ids)
	}
}

// TestWorkloadUnderConcurrency hammers capture, /v1/debug/workload, and
// SLO-annotated /healthz and /metricsz scrapes against concurrent
// queries, mutations, and reloads: counters must be monotonic, windows
// never torn (window count bounded by lifetime count), and every scrape
// a clean parse. Run under -race in CI.
func TestWorkloadUnderConcurrency(t *testing.T) {
	capPath := filepath.Join(t.TempDir(), "hammer.capture")
	env := newTestEnv(t, server.Options{
		CapturePath: capPath,
		SLOTarget:   time.Second,
	})
	f := env.fixtures[0]
	path := textPath(t, f.ds)

	const rounds = 30
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := f.queries[(i+w)%len(f.queries)]
				resp, _ := postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{Dataset: f.name, Pattern: q})
				resp.Body.Close()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, _, _ := mutateBody(t, env.ts.URL, server.MutateRequest{
				Dataset: f.name,
				Edits:   []delta.Edit{{Op: delta.OpSetText, Path: path, Text: fmt.Sprintf("hammer-%d", i)}},
			})
			resp.Body.Close()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			select {
			case <-stop:
				return
			case <-time.After(15 * time.Millisecond):
			}
			resp, _ := postJSON(t, env.ts.URL+"/v1/admin/reload", struct{}{})
			resp.Body.Close()
		}
	}()

	var prevRequests, prevRecords uint64
	var prevTotal float64
	for i := 0; i < rounds; i++ {
		// Every scrape must parse (scrapeMetrics lint-fails otherwise,
		// including the duplicate-series check) with monotonic counters.
		ms := scrapeMetrics(t, env.ts.URL)
		if v, ok := metricValue(ms, "xmatch_http_requests_total", obs.Label{Name: "endpoint", Value: "query"}); !ok {
			t.Fatalf("scrape %d lacks query counter", i)
		} else if v < prevTotal {
			t.Fatalf("query counter went backwards: %v -> %v", prevTotal, v)
		} else {
			prevTotal = v
		}

		resp, raw := getJSON(t, env.ts.URL+"/v1/debug/workload")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("debug workload status %d", resp.StatusCode)
		}
		var dbg server.WorkloadDebug
		if err := json.Unmarshal(raw, &dbg); err != nil {
			t.Fatal(err)
		}
		var sum uint64
		for _, entry := range dbg.Entries {
			sum += entry.Requests
			if entry.WindowRequests > entry.Requests {
				t.Fatalf("torn window: %d windowed > %d lifetime for %s", entry.WindowRequests, entry.Requests, entry.Fingerprint)
			}
		}
		if sum < prevRequests {
			t.Fatalf("workload requests went backwards: %d -> %d", prevRequests, sum)
		}
		prevRequests = sum
		if dbg.Capture == nil {
			t.Fatal("capture status missing")
		}
		if dbg.Capture.Records < prevRecords {
			t.Fatalf("capture records went backwards: %d -> %d", prevRecords, dbg.Capture.Records)
		}
		prevRecords = dbg.Capture.Records

		code, body := getJSON(t, env.ts.URL+"/healthz")
		var hb struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(body, &hb); err != nil {
			t.Fatal(err)
		}
		if code.StatusCode != http.StatusOK || (hb.Status != "ok" && hb.Status != "degraded") {
			t.Fatalf("healthz %d %q", code.StatusCode, hb.Status)
		}
	}
	close(stop)
	wg.Wait()

	// The capture survives the hammer intact: a clean close, then every
	// record parses back.
	if err := env.srv.Close(); err != nil {
		t.Fatal(err)
	}
	w, err := store.LoadWorkloadFile(capPath)
	if err != nil {
		t.Fatal(err)
	}
	if w.Torn {
		t.Fatal("capture has a torn tail after a clean close")
	}
	if uint64(len(w.Records)) < prevRecords {
		t.Fatalf("capture holds %d records, observed %d via the debug endpoint", len(w.Records), prevRecords)
	}
}
