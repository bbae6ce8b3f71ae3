package server

import (
	"bytes"
	"net/http"
	"strconv"
	"time"

	"xmatch/internal/index"
	"xmatch/internal/obs"
)

// /metricsz and /statsz: one registry of scrape-time collectors, rendered
// as Prometheus text exposition and as JSON. Every subsystem emits its own
// series; DESIGN.md's metric catalogue lists them all. The registry runs
// its collectors at scrape time against the current catalog, so datasets
// that appear or vanish on reload need no metric lifecycle management —
// and the serving hot paths touch nothing but their existing atomics
// between scrapes.

// newRegistry wires the server's scrape-time collectors: the HTTP layer's
// own counters and latency histograms, the global index-matcher counters,
// per-dataset engine gauges, per-shard delta/replication collectors, and
// the follower's lag accounting when this server is a replica.
func (s *Server) newRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Collect(s.collectServer)
	reg.Collect(s.collectWorkload)
	reg.Collect(index.CollectMetrics)
	reg.Collect(s.collectCatalog)
	reg.Collect(func(e *obs.Exporter) {
		if s.follower != nil {
			s.follower.CollectMetrics(e)
		}
	})
	return reg
}

func (s *Server) collectServer(e *obs.Exporter) {
	e.Gauge("xmatch_uptime_seconds", "Seconds since the server started.", time.Since(s.stats.start).Seconds())
	role, primary := "primary", ""
	if s.follower != nil {
		role, primary = "follower", s.follower.Primary()
	}
	e.Gauge("xmatch_role", "Always 1; the labels name the server's role and, on a follower, its primary's base URL.", 1,
		obs.Label{Name: "role", Value: role}, obs.Label{Name: "primary", Value: primary})
	e.Gauge("xmatch_http_in_flight", "Requests currently being served on the timed endpoints.", float64(s.stats.inFlight.Load()))
	for _, ep := range s.stats.endpoints {
		label := obs.Label{Name: "endpoint", Value: ep.name}
		e.Counter("xmatch_http_requests_total", "Requests accepted per endpoint.", float64(ep.requests.Load()), label)
		e.Histogram("xmatch_http_request_seconds", "Request latency per endpoint.", ep.lat.Snapshot(), label)
		win := ep.lat.Window()
		for _, q := range []struct {
			q float64
			s string
		}{{0.50, "0.5"}, {0.95, "0.95"}, {0.99, "0.99"}} {
			e.Gauge("xmatch_http_request_window_ms", "Sliding-window latency quantile per endpoint, in milliseconds.",
				win.Quantile(q.q), label, obs.Label{Name: "quantile", Value: q.s})
		}
	}
	e.Counter("xmatch_http_errors_total", "Non-2xx responses across all endpoints.", float64(s.stats.errors.Load()))
	e.Counter("xmatch_requests_timeout", "Requests answered 503 because their deadline fired before the work finished.", float64(s.stats.timeouts.Load()))
	e.Counter("xmatch_requests_shed_total", "Requests answered 429 by the admission gate (queue full).", float64(s.stats.shed.Load()))
	e.Counter("xmatch_http_panics_total", "Handler panics recovered into 500 responses.", float64(s.stats.panics.Load()))
	e.Gauge("xmatch_ready", "Whether /readyz reports ready (0 while draining for shutdown).", obs.Bool(s.ready.Load()))
	if s.adm != nil {
		e.Gauge("xmatch_admission_in_flight", "Admitted query/batch evaluations currently holding a slot.", float64(s.adm.inFlight()))
		e.Gauge("xmatch_admission_queue_depth", "Requests currently waiting for an admission slot.", float64(s.adm.queueDepth()))
		e.Histogram("xmatch_admission_wait_seconds", "Time queued requests waited for an admission slot.", s.adm.waitLat.Snapshot())
	}
	e.Counter("xmatch_reloads_total", "Successful catalog reloads.", float64(s.stats.reloads.Load()))
	e.Counter("xmatch_edits_applied_total", "Edits applied through /v1/admin/mutate.", float64(s.stats.edits.Load()))
	finished, sampled := s.traces.Counts()
	e.Counter("xmatch_traces_finished_total", "Requests that finished through the trace middleware.", float64(finished))
	e.Counter("xmatch_traces_sampled_total", "Traces retained by the slow-query tail sampler.", float64(sampled))
	if s.opts.SLOTarget > 0 {
		win := s.stats.query.lat.Window()
		slo := obs.SLO{Target: s.opts.SLOTarget, Objective: s.opts.SLOObjective}
		bad, burn := slo.Burn(win)
		e.Gauge("xmatch_slo_target_seconds", "Configured query latency SLO target.", s.opts.SLOTarget.Seconds())
		e.Gauge("xmatch_slo_objective", "Configured fraction of queries that must meet the target.", s.opts.SLOObjective)
		e.Gauge("xmatch_slo_window_seconds", "Sliding window the burn rate is computed over.", s.opts.SLOWindow.Seconds())
		e.Gauge("xmatch_slo_window_requests", "Query requests inside the sliding window.", float64(win.Count))
		e.Gauge("xmatch_slo_bad_fraction", "Fraction of windowed queries slower than the target.", bad)
		e.Gauge("xmatch_slo_burn_rate", "Error-budget burn rate over the window; above 1 the budget shrinks.", burn)
	}
}

// collectWorkload exposes the fingerprint table's head (bounded, so a
// high-cardinality workload cannot explode the scrape) and the capture
// log's progress.
func (s *Server) collectWorkload(e *obs.Exporter) {
	tracked, evicted := s.workload.size()
	e.Gauge("xmatch_workload_fingerprints", "Distinct query fingerprints currently tracked.", float64(tracked))
	e.Counter("xmatch_workload_evicted_total", "Fingerprints evicted from the bounded accounting table.", float64(evicted))
	for _, entry := range s.workload.top(10) {
		labels := []obs.Label{
			{Name: "fingerprint", Value: entry.Fingerprint},
			{Name: "dataset", Value: entry.Dataset},
			{Name: "mode", Value: entry.Mode},
		}
		e.Counter("xmatch_workload_requests_total", "Requests per hot query fingerprint (top fingerprints only).", float64(entry.Requests), labels...)
		e.Counter("xmatch_workload_prepare_hits_total", "Prepared-query cache hits per hot fingerprint.", float64(entry.PrepareHits), labels...)
		e.Gauge("xmatch_workload_window_p95_ms", "Sliding-window p95 latency per hot fingerprint, in milliseconds.", entry.P95Ms, labels...)
	}
	if s.capture != nil {
		st := s.capture.status()
		e.Counter("xmatch_capture_records_total", "Workload records appended to the capture log.", float64(st.Records))
		e.Counter("xmatch_capture_sampled_out_total", "Requests skipped by capture sampling.", float64(st.SampledOut))
		e.Counter("xmatch_capture_dropped_total", "Requests dropped because the capture budget was exhausted.", float64(st.DroppedOver))
		e.Gauge("xmatch_capture_bytes", "Bytes written to the capture log.", float64(st.BytesWritten))
		e.Gauge("xmatch_capture_budget_bytes", "Configured capture disk budget.", float64(st.BudgetBytes))
		e.Gauge("xmatch_capture_disabled", "Whether a write error permanently disabled the capture log.", obs.Bool(st.Disabled))
	}
}

func (s *Server) collectCatalog(e *obs.Exporter) {
	for _, d := range s.Catalog().Datasets() {
		dsLabel := obs.Label{Name: "dataset", Value: d.Name}
		d.Engine.CollectMetrics(e, dsLabel)
		for i, sh := range d.Shards() {
			labels := []obs.Label{dsLabel, {Name: "shard", Value: strconv.Itoa(i)}}
			sh.Live.CollectMetrics(e, labels...)
			if sh.Log != nil {
				sh.Log.CollectMetrics(e, labels...)
			}
			e.Histogram("xmatch_shard_evaluate_seconds", "Per-shard evaluation wall time, one observation per (embedding, shard) scatter unit.", sh.lat.Snapshot(), labels...)
		}
	}
}

// handleMetricsz renders the registry. The exposition is buffered so a
// collector error can still become a clean 500 instead of a torn body.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if err := s.registry.WriteText(&buf); err != nil {
		s.fail(w, http.StatusInternalServerError, "metrics: %v", err)
		return
	}
	w.Header().Set("Content-Type", obs.TextContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// handleStatsz is the JSON view of the same registry: the exposition is
// rendered, parsed back by the exposition lint, and served as one series
// list in exposition order, so a malformed or duplicate series fails
// /statsz exactly as it fails the lint.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if err := s.registry.WriteText(&buf); err != nil {
		s.fail(w, http.StatusInternalServerError, "metrics: %v", err)
		return
	}
	series, err := obs.ParseExposition(&buf)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "metrics: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Series []obs.ExpositionMetric `json:"series"`
	}{series})
}
