package server_test

// The observability surface: /metricsz exposition-format lint over a live
// server (every subsystem's collectors render valid Prometheus text) and
// /statsz serving the same series as JSON in the same order, query
// EXPLAIN over an indexed sharded collection, slow-query trace retention,
// follower /healthz lag degradation, and a concurrency hammer that
// scrapes /metricsz and /statsz while queries, mutations, and reloads
// race — asserting counters stay monotonic and histograms are never
// torn. Run under -race in CI. DESIGN.md's metric catalogue is held to
// the code in catalogue_test.go.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"xmatch/internal/core"
	"xmatch/internal/delta"
	"xmatch/internal/engine"
	"xmatch/internal/obs"
	"xmatch/internal/server"
)

// scrapeMetrics fetches /metricsz and parses it against the exposition
// grammar, failing the test on any malformed line.
func scrapeMetrics(t *testing.T, base string) []obs.ExpositionMetric {
	t.Helper()
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.TextContentType {
		t.Fatalf("metricsz Content-Type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	ms, err := obs.ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition lint: %v\n%s", err, buf.String())
	}
	return ms
}

// scrapeStatsz fetches /statsz, the JSON view of the same registry.
func scrapeStatsz(t *testing.T, base string) []obs.ExpositionMetric {
	t.Helper()
	resp, raw := getJSON(t, base+"/statsz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statsz status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("statsz Content-Type %q", ct)
	}
	var body struct {
		Series []obs.ExpositionMetric `json:"series"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("statsz body: %v\n%s", err, raw)
	}
	return body.Series
}

// hasLabels reports whether m carries every wanted label pair.
func hasLabels(m obs.ExpositionMetric, want []obs.Label) bool {
	for _, l := range want {
		if !slices.Contains(m.Labels, l) {
			return false
		}
	}
	return true
}

// metricValue finds one sample by name and label subset; ok is false when
// absent.
func metricValue(ms []obs.ExpositionMetric, name string, labels ...obs.Label) (float64, bool) {
	for _, m := range ms {
		if m.Name == name && hasLabels(m, labels) {
			return m.Value, true
		}
	}
	return 0, false
}

// mustValue is metricValue for a sample the test requires.
func mustValue(t *testing.T, ms []obs.ExpositionMetric, name string, labels ...obs.Label) float64 {
	t.Helper()
	v, ok := metricValue(ms, name, labels...)
	if !ok {
		t.Fatalf("no %s sample with labels %v", name, labels)
	}
	return v
}

// metricSum totals every sample of name carrying the labels — a dataset's
// shards, say — and counts them.
func metricSum(ms []obs.ExpositionMetric, name string, labels ...obs.Label) (sum float64, n int) {
	for _, m := range ms {
		if m.Name == name && hasLabels(m, labels) {
			sum += m.Value
			n++
		}
	}
	return sum, n
}

func dsLabel(name string) obs.Label { return obs.Label{Name: "dataset", Value: name} }
func epLabel(name string) obs.Label { return obs.Label{Name: "endpoint", Value: name} }

// checkHistograms asserts every histogram of a scrape is whole: its
// cumulative buckets never decrease, and its _count equals its +Inf
// bucket.
func checkHistograms(t *testing.T, ms []obs.ExpositionMetric) {
	t.Helper()
	last := map[string]float64{} // series -> previous cumulative bucket
	inf := map[string]float64{}  // series -> +Inf bucket
	for _, m := range ms {
		if base, ok := strings.CutSuffix(m.Name, "_bucket"); ok {
			var le string
			var rest []obs.Label
			for _, l := range m.Labels {
				if l.Name == "le" {
					le = l.Value
				} else {
					rest = append(rest, l)
				}
			}
			key := fmt.Sprint(base, rest)
			if prev, seen := last[key]; seen && m.Value < prev {
				t.Errorf("torn histogram %s: bucket le=%s holds %v, below the previous bucket's %v", key, le, m.Value, prev)
			}
			last[key] = m.Value
			if le == "+Inf" {
				inf[key] = m.Value
			}
		} else if base, ok := strings.CutSuffix(m.Name, "_count"); ok {
			key := fmt.Sprint(base, m.Labels)
			if _, isHist := last[key]; isHist && inf[key] != m.Value {
				t.Errorf("torn histogram %s: _count %v, +Inf bucket %v", key, m.Value, inf[key])
			}
		}
	}
	if len(inf) == 0 {
		t.Error("scrape holds no histogram")
	}
}

// textPath returns a text-bearing path of the dataset's document, for
// valid SetText edits.
func textPath(t *testing.T, ds *server.Dataset) string {
	t.Helper()
	for _, p := range ds.Doc().Paths() {
		if ns := ds.Doc().NodesByPath(p); len(ns) > 0 && ns[0].Text != "" {
			return p
		}
	}
	t.Fatal("no text node in fixture document")
	return ""
}

// TestMetricszExposition is the CI exposition-format lint: after real
// traffic (queries and a mutation), /metricsz must render valid
// Prometheus text covering every subsystem — server, engine, index,
// delta, and replica.
func TestMetricszExposition(t *testing.T) {
	env := newTestEnv(t, server.Options{})
	f := env.fixtures[0]

	for _, q := range f.queries[:2] {
		resp, _ := postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{Dataset: f.name, Pattern: q})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d", resp.StatusCode)
		}
	}
	resp, _, errMsg := mutateBody(t, env.ts.URL, server.MutateRequest{
		Dataset: f.name,
		Edits:   []delta.Edit{{Op: delta.OpSetText, Path: textPath(t, f.ds), Text: "observed"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate status %d: %s", resp.StatusCode, errMsg)
	}

	ms := scrapeMetrics(t, env.ts.URL)
	// One representative family per subsystem: a missing family means a
	// subsystem's collector was never wired.
	for _, want := range []string{
		"xmatch_http_requests_total",  // server
		"xmatch_engine_workers",       // engine
		"xmatch_index_evals_total",    // index matcher
		"xmatch_delta_epoch",          // delta (live mutation)
		"xmatch_replica_log_epoch",    // replica (shard log, primary side)
		"xmatch_http_request_seconds", // latency histograms render
		"xmatch_shard_evaluate_seconds",
	} {
		found := false
		for _, m := range ms {
			if m.Name == want || strings.HasPrefix(m.Name, want+"_") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("metricsz lacks family %s", want)
		}
	}
	if v, ok := metricValue(ms, "xmatch_http_requests_total", obs.Label{Name: "endpoint", Value: "query"}); !ok || v < 2 {
		t.Errorf("query requests counter %v (present %v)", v, ok)
	}
	if v, ok := metricValue(ms, "xmatch_delta_epoch", obs.Label{Name: "dataset", Value: f.name}); !ok || v != 1 {
		t.Errorf("delta epoch gauge %v (present %v) after one mutation", v, ok)
	}
	if v, ok := metricValue(ms, "xmatch_index_evals_total"); !ok || v == 0 {
		t.Errorf("index evals counter %v (present %v) after queries", v, ok)
	}

	// /statsz is the same registry as JSON: on the quiesced server it
	// serves exactly /metricsz's series, in exposition order.
	js := scrapeStatsz(t, env.ts.URL)
	if len(js) != len(ms) {
		t.Fatalf("metricsz has %d samples, statsz %d", len(ms), len(js))
	}
	for i := range ms {
		if ms[i].Name != js[i].Name || !slices.Equal(ms[i].Labels, js[i].Labels) {
			t.Fatalf("sample %d: metricsz %s%v, statsz %s%v", i, ms[i].Name, ms[i].Labels, js[i].Name, js[i].Labels)
		}
	}
}

// TestQueryExplain asserts the EXPLAIN contract on an indexed, sharded
// collection: ?explain=1 returns the request's spans (prepare, per-shard
// evaluate, aggregate) plus per-shard matcher counters that moved.
func TestQueryExplain(t *testing.T) {
	ts, srv := newPrimary(t)
	ds := srv.Catalog().Get("orders")
	pattern := firstLeafPattern(ds)

	resp, raw := postJSON(t, ts.URL+"/v1/query?explain=1", server.QueryRequest{Dataset: "orders", Pattern: pattern})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain query status %d: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("response lacks X-Request-Id")
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Explain == nil {
		t.Fatal("explain requested but absent from response")
	}
	ex := qr.Explain
	if ex.Trace.ID == "" || ex.Trace.ID != resp.Header.Get("X-Request-Id") {
		t.Errorf("trace id %q vs X-Request-Id %q", ex.Trace.ID, resp.Header.Get("X-Request-Id"))
	}
	spans := map[string]int{}
	for _, sp := range ex.Trace.Spans {
		spans[sp.Name]++
	}
	if spans["prepare"] != 1 || spans["evaluate"] != 1 || spans["aggregate"] != 1 {
		t.Errorf("span census %v lacks prepare/evaluate/aggregate", spans)
	}
	if spans["shard_evaluate"] < ds.NumShards() {
		t.Errorf("%d shard_evaluate spans for %d shards", spans["shard_evaluate"], ds.NumShards())
	}
	if len(ex.Shards) != ds.NumShards() {
		t.Fatalf("%d explain shard rows for %d shards", len(ex.Shards), ds.NumShards())
	}
	for _, sh := range ex.Shards {
		if c := sh.Counters; c.Evals+c.UnitHits+c.UnitMisses == 0 {
			t.Errorf("shard %d matcher counters did not move: %+v", sh.Shard, sh.Counters)
		}
	}
	// The plan block: the default (compact) mode ran a compiled plan, and
	// evaluating a shard cost at most one matcher call per leaf unit and
	// one unit lookup per join unit and per result class — whatever the
	// worker count.
	if ex.Plan == nil {
		t.Fatal("explain of a compact query lacks the plan block")
	}
	p := ex.Plan
	if p.RelevantMappings == 0 || p.LeafUnits == 0 || p.BlockUnits > p.LeafUnits ||
		p.ResultClasses == 0 || p.ResultClasses > p.RelevantMappings {
		t.Errorf("implausible plan block %+v", *p)
	}
	for _, sh := range ex.Shards {
		if c := sh.Counters; c.Evals > uint64(p.LeafUnits) || c.UnitHits+c.UnitMisses > uint64(p.JoinUnits+p.ResultClasses) {
			t.Errorf("shard %d: %d matcher calls and %d unit lookups for %d leaf units, %d join units and %d classes",
				sh.Shard, c.Evals, c.UnitHits+c.UnitMisses, p.LeafUnits, p.JoinUnits, p.ResultClasses)
		}
	}
	// The same request again is answered from the shards' memos: one lookup
	// per result class at most, and no matcher call.
	resp, raw = postJSON(t, ts.URL+"/v1/query?explain=1", server.QueryRequest{Dataset: "orders", Pattern: pattern})
	var hot server.QueryResponse
	if err := json.Unmarshal(raw, &hot); err != nil || resp.StatusCode != http.StatusOK || hot.Explain == nil {
		t.Fatalf("hot explain query: status %d, %v", resp.StatusCode, err)
	}
	var hits uint64
	for _, sh := range hot.Explain.Shards {
		c := sh.Counters
		if c.Evals != 0 || c.UnitMisses != 0 || c.UnitHits > uint64(p.ResultClasses) {
			t.Errorf("hot request, shard %d: %d matcher calls, %d unit lookups (%d misses) for %d result classes",
				sh.Shard, c.Evals, c.UnitHits+c.UnitMisses, c.UnitMisses, p.ResultClasses)
		}
		hits += c.UnitHits
	}
	if hits == 0 {
		t.Error("hot request made no unit lookup")
	}
	// Basic mode runs the plan over no c-blocks: one leaf unit per distinct
	// whole-query rewrite, and a repeat is answered from the memo.
	q, err := core.PrepareQuery(pattern, ds.Set)
	if err != nil {
		t.Fatal(err)
	}
	rewrites := 0
	for _, emb := range q.Embeddings {
		seen := map[string]bool{}
		for _, mi := range core.FilterMappings(ds.Set, emb) {
			key := ""
			for _, qn := range q.Pattern.Nodes() {
				s, _ := ds.Set.Mappings[mi].SourceFor(emb[qn.Index])
				key += fmt.Sprint(s, " ")
			}
			seen[key] = true
		}
		rewrites += len(seen)
	}
	for pass := 0; pass < 2; pass++ {
		resp, raw = postJSON(t, ts.URL+"/v1/query?explain=1", server.QueryRequest{Dataset: "orders", Pattern: pattern, Mode: "basic"})
		var basic server.QueryResponse
		if err := json.Unmarshal(raw, &basic); err != nil || resp.StatusCode != http.StatusOK || basic.Explain == nil || basic.Explain.Plan == nil {
			t.Fatalf("basic explain: status %d, %v, want an explain block with a plan", resp.StatusCode, err)
		}
		if p := basic.Explain.Plan; p.LeafUnits != rewrites || p.JoinUnits != 0 || p.ResultClasses != rewrites {
			t.Errorf("basic plan %+v, want %d leaf units and classes, one per distinct rewrite", *p, rewrites)
		}
		for _, sh := range basic.Explain.Shards {
			if c := sh.Counters; pass == 1 && (c.Evals != 0 || c.UnitMisses != 0) {
				t.Errorf("hot basic request, shard %d: %d matcher calls, %d unit misses", sh.Shard, c.Evals, c.UnitMisses)
			}
		}
	}

	// Explain via the body field behaves identically.
	resp, raw = postJSON(t, ts.URL+"/v1/query", server.QueryRequest{Dataset: "orders", Pattern: pattern, Explain: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("body-explain status %d", resp.StatusCode)
	}
	var qr2 server.QueryResponse
	if err := json.Unmarshal(raw, &qr2); err != nil {
		t.Fatal(err)
	}
	if qr2.Explain == nil {
		t.Fatal("body-field explain absent")
	}
	// A plain query carries no explain block.
	resp, raw = postJSON(t, ts.URL+"/v1/query", server.QueryRequest{Dataset: "orders", Pattern: pattern})
	if resp.StatusCode != http.StatusOK {
		t.Fatal("plain query failed")
	}
	if bytes.Contains(raw, []byte(`"explain"`)) {
		t.Error("unrequested explain block in response")
	}
}

// TestTracesTailSampling asserts the slow-query log end: with a 1ns
// threshold every request is retained on /v1/debug/traces, newest first,
// with its spans intact.
func TestTracesTailSampling(t *testing.T) {
	env := newTestEnv(t, server.Options{TraceThreshold: time.Nanosecond})
	f := env.fixtures[0]
	for i := 0; i < 3; i++ {
		resp, _ := postJSON(t, env.ts.URL+"/v1/query", server.QueryRequest{Dataset: f.name, Pattern: f.queries[0]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d", resp.StatusCode)
		}
	}
	resp, raw := getJSON(t, env.ts.URL+"/v1/debug/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traces status %d", resp.StatusCode)
	}
	var body struct {
		ThresholdMs float64         `json:"thresholdMs"`
		Finished    uint64          `json:"finished"`
		Sampled     uint64          `json:"sampled"`
		Traces      []obs.TraceData `json:"traces"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if body.Finished < 3 || body.Sampled < 3 || len(body.Traces) < 3 {
		t.Fatalf("finished=%d sampled=%d retained=%d, want >= 3 each", body.Finished, body.Sampled, len(body.Traces))
	}
	tr := body.Traces[0]
	if tr.ID == "" || tr.Endpoint != "query" || tr.Dataset != f.name || len(tr.Spans) == 0 {
		t.Fatalf("retained trace %+v lacks id/endpoint/dataset/spans", tr)
	}
}

// TestMutateTraceRegions: a traced write says where its time went — the
// apply span carries the child regions resolve, commit, index and log,
// each inside apply's interval and in that order.
func TestMutateTraceRegions(t *testing.T) {
	env := newTestEnv(t, server.Options{TraceThreshold: time.Nanosecond})
	f := env.fixtures[0]
	path := textPath(t, env.srv.Catalog().Get(f.name))
	resp, _, errMsg := mutateBody(t, env.ts.URL, server.MutateRequest{
		Dataset: f.name,
		Edits:   []delta.Edit{{Op: delta.OpSetText, Path: path, Text: "traced"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %s", resp.StatusCode, errMsg)
	}
	_, raw := getJSON(t, env.ts.URL+"/v1/debug/traces")
	var body struct {
		Traces []obs.TraceData `json:"traces"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	for _, tr := range body.Traces {
		if tr.Endpoint != "mutate" {
			continue
		}
		spans := map[string]obs.Span{}
		for _, sp := range tr.Spans {
			spans[sp.Name] = sp
		}
		apply, ok := spans["apply"]
		if !ok {
			t.Fatalf("mutate trace has no apply span: %+v", tr.Spans)
		}
		at := apply.StartUs
		for _, name := range []string{"resolve", "commit", "index", "log"} {
			sp, ok := spans[name]
			if !ok {
				t.Fatalf("mutate trace has no %s region: %+v", name, tr.Spans)
			}
			if sp.StartUs < at || sp.StartUs+sp.DurUs > apply.StartUs+apply.DurUs+2 { // offsets are floored to the microsecond
				t.Fatalf("%s region [%d,+%d] out of order or outside apply [%d,+%d]", name, sp.StartUs, sp.DurUs, apply.StartUs, apply.DurUs)
			}
			at = sp.StartUs
		}
		return
	}
	t.Fatalf("no mutate trace retained: %s", raw)
}

// TestStageSpansTileRequest: the request pipeline's stage spans tile a
// request — the first begins at the trace's start, each of the others
// where the one before it ended, and the last ends with the trace — for a
// query, a batch and a mutate, in the order the stage list declares.
// Spans nested inside a stage (shard_evaluate, replica_sync, and apply's
// resolve, commit, index and log) are not stages. A query held in
// await_epoch until a mutation meets its min_epoch shows where its time
// went: its stage spans cover at least 95% of it, the wait included.
func TestStageSpansTileRequest(t *testing.T) {
	srv, err := server.New(func() (*server.Catalog, error) {
		return server.BuildCatalog(repManifest(), ".", engine.Options{Workers: 4})
	}, server.Options{TraceThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	orders, small := srv.Catalog().Get("orders"), srv.Catalog().Get("small")
	pattern := firstLeafPattern(orders)
	path := textPath(t, small)
	nested := map[string]bool{"shard_evaluate": true, "replica_sync": true, "resolve": true, "commit": true, "index": true, "log": true}

	// check finds the request's retained trace and holds its stage spans
	// to want; it returns the trace and the stage spans' total.
	check := func(label string, resp *http.Response, want ...string) (obs.TraceData, int64) {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", label, resp.StatusCode)
		}
		_, raw := getJSON(t, ts.URL+"/v1/debug/traces")
		var body struct {
			Traces []obs.TraceData `json:"traces"`
		}
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatal(err)
		}
		id := resp.Header.Get("X-Request-Id")
		for _, tr := range body.Traces {
			if tr.ID != id {
				continue
			}
			var names []string
			var end, sum int64
			for _, sp := range tr.Spans {
				if nested[sp.Name] {
					continue
				}
				// Offsets and durations are floored to the microsecond.
				if sp.StartUs < end || sp.StartUs > end+1 {
					t.Errorf("%s: stage %s starts at %d µs, the one before ended at %d: %+v", label, sp.Name, sp.StartUs, end, tr.Spans)
				}
				names = append(names, sp.Name)
				end = sp.StartUs + sp.DurUs
				sum += sp.DurUs
			}
			if !slices.Equal(names, want) {
				t.Errorf("%s: stages %v, want %v", label, names, want)
			}
			if end < tr.DurUs-1 || end > tr.DurUs {
				t.Errorf("%s: the last stage ends at %d µs, the request at %d", label, end, tr.DurUs)
			}
			return tr, sum
		}
		t.Fatalf("%s: trace %s not retained", label, id)
		return obs.TraceData{}, 0
	}

	resp, _ := postJSON(t, ts.URL+"/v1/query", server.QueryRequest{Dataset: "orders", Pattern: pattern})
	check("query", resp, "decode", "prepare", "evaluate", "aggregate", "encode", "write")
	resp, _ = postJSON(t, ts.URL+"/v1/batch", server.BatchRequest{Dataset: "orders", Queries: []server.BatchQuery{{Pattern: pattern}, {Pattern: pattern, K: 2}}})
	check("batch", resp, "decode", "evaluate", "aggregate", "encode", "write")
	resp, _, errMsg := mutateBody(t, ts.URL, server.MutateRequest{
		Dataset: "small",
		Edits:   []delta.Edit{{Op: delta.OpSetText, Path: path, Text: "tiled"}},
	})
	if errMsg != "" {
		t.Fatalf("mutate: %s", errMsg)
	}
	check("mutate", resp, "decode", "apply", "write")

	// min_epoch one past the current epoch; a mutation meets it ~5 ms on.
	// A host too slow to reach the wait before the mutation lands gets
	// another try with a longer delay.
	for delay := 5 * time.Millisecond; ; delay *= 2 {
		epoch := small.Snapshot().Epoch
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(delay)
			body, _ := json.Marshal(server.MutateRequest{
				Dataset: "small",
				Edits:   []delta.Edit{{Op: delta.OpSetText, Path: path, Text: "awaited"}},
			})
			if resp, err := http.Post(ts.URL+"/v1/admin/mutate", "application/json", bytes.NewReader(body)); err == nil {
				resp.Body.Close()
			}
		}()
		resp, _ = postJSON(t, ts.URL+"/v1/query", server.QueryRequest{Dataset: "small", Pattern: leafPatterns(t, small, 2)[0], MinEpoch: epoch + 1})
		<-done
		tr, sum := check("awaited query", resp, "decode", "await_epoch", "prepare", "evaluate", "aggregate", "encode", "write")
		var waited int64
		for _, sp := range tr.Spans {
			if sp.Name == "await_epoch" {
				waited = sp.DurUs
			}
		}
		if waited < 2000 {
			if delay < time.Second {
				continue
			}
			t.Fatalf("await_epoch lasted %d µs with the mutation %v late, want >= 2 ms", waited, delay)
		}
		if float64(sum) < 0.95*float64(tr.DurUs) {
			t.Errorf("stage spans cover %d of %d µs, want >= 95%%", sum, tr.DurUs)
		}
		break
	}
}

// TestFollowerHealthzDegraded asserts the follower liveness contract:
// /healthz answers 503 with lag detail when the worst shard's revealed
// lag exceeds MaxLagEpochs, and recovers to 200 once a sync catches up.
func TestFollowerHealthzDegraded(t *testing.T) {
	pts, psrv := newPrimary(t)
	rts, _, f := newReplica(t, pts.URL, server.Options{MaxLagEpochs: 2})

	// Build a 3-epoch gap on the single-shard dataset, unseen by the
	// replica (its sync loop is not running).
	path := textPath(t, psrv.Catalog().Get("small"))
	for i := 0; i < 3; i++ {
		resp, _, errMsg := mutateBody(t, pts.URL, server.MutateRequest{
			Dataset: "small",
			Edits:   []delta.Edit{{Op: delta.OpSetText, Path: path, Text: fmt.Sprintf("lagged-%d", i)}},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("primary mutate %d: %d %s", i, resp.StatusCode, errMsg)
		}
	}
	// The next sync reveals (and closes) the 3-epoch gap; the recorded
	// lag reflects what this sync had to replay.
	if err := f.Sync("small"); err != nil {
		t.Fatal(err)
	}
	resp, raw := getJSON(t, rts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status %d (want 503): %s", resp.StatusCode, raw)
	}
	var h struct {
		Status string `json:"status"`
		Lag    struct {
			Dataset      string `json:"dataset"`
			EpochsBehind uint64 `json:"epochsBehind"`
		} `json:"lag"`
	}
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.Lag.Dataset != "small" || h.Lag.EpochsBehind != 3 {
		t.Fatalf("degraded body %s", raw)
	}
	// Caught up: the next sync finds no gap and health recovers.
	if err := f.Sync("small"); err != nil {
		t.Fatal(err)
	}
	resp, raw = getJSON(t, rts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"status":"ok"`) {
		t.Fatalf("healthz after catch-up: %d %s", resp.StatusCode, raw)
	}
}

// TestMetricsUnderConcurrency hammers queries, mutations, and reloads
// while scraping /metricsz and /statsz, asserting on every scrape that
// (a) the exposition parses, (b) counters are monotonic across scrapes —
// including the index matcher counters, which must survive the reloads
// swapping in fresh indexes — and (c) no histogram is torn on either
// endpoint (cumulative buckets never decrease, _count is the +Inf
// bucket).
func TestMetricsUnderConcurrency(t *testing.T) {
	env := newTestEnv(t, server.Options{})
	f := env.fixtures[0]
	path := textPath(t, f.ds)

	const rounds = 40
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
			case <-time.After(20 * time.Millisecond):
			}
			resp, _ := postJSON(t, env.ts.URL+"/v1/admin/reload", struct{}{})
			resp.Body.Close()
		}
	}()

	prev := map[string]float64{}
	monotonic := []struct {
		name   string
		labels []obs.Label
	}{
		{"xmatch_http_requests_total", []obs.Label{{Name: "endpoint", Value: "query"}}},
		{"xmatch_http_requests_total", []obs.Label{{Name: "endpoint", Value: "mutate"}}},
		{"xmatch_index_evals_total", nil},
		{"xmatch_index_emitted_matches_total", nil},
		{"xmatch_edits_applied_total", nil},
	}
	for i := 0; i < rounds; i++ {
		ms := scrapeMetrics(t, env.ts.URL) // parse failure fails the test
		for _, m := range monotonic {
			key := fmt.Sprint(m.name, m.labels)
			v, ok := metricValue(ms, m.name, m.labels...)
			if !ok {
				t.Fatalf("scrape %d lacks %s", i, key)
			}
			if v < prev[key] {
				t.Fatalf("counter %s went backwards: %v -> %v", key, prev[key], v)
			}
			prev[key] = v
		}
		checkHistograms(t, ms)
		checkHistograms(t, scrapeStatsz(t, env.ts.URL))
	}
	close(stop)
	wg.Wait()
}
