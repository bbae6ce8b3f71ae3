// Package server implements xmatchd's HTTP/JSON serving layer: a
// long-lived, hot-reloadable multi-tenant catalog of prepared datasets
// (mapping set + document + block tree + per-dataset engine) behind a small
// API:
//
//	POST /v1/query         one PTQ (basic / compact / top-k)
//	POST /v1/batch         many PTQs over one dataset, engine-fanned
//	GET  /v1/datasets      catalog listing
//	GET  /healthz          liveness
//	GET  /metricsz         every counter, gauge and histogram (Prometheus text)
//	GET  /statsz           the same series as JSON
//	POST /v1/admin/reload  rebuild the catalog and swap it atomically
//	POST /v1/admin/mutate  apply an edit batch to one dataset's document
//
// Every query runs through a per-request engine.Sub view, so one fat
// batch cannot claim the dataset's whole worker pool, and every response's
// results decode byte-identically to the sequential internal/core
// evaluators (asserted end-to-end by server_test.go).
//
// Documents are live: each dataset's document and positional index sit
// behind a delta.Handle. A request handler pins the current snapshot once
// and evaluates against that pair to completion, so mutations applied
// concurrently (writers serialize per dataset inside the handle) never
// perturb an in-flight request — they only decide what the next request
// sees.
package server

import (
	"cmp"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"xmatch/internal/obs"
	"xmatch/internal/replica"
	"xmatch/internal/store"
)

// Fixed bounds of the HTTP layer.
const (
	// maxBatchQueries bounds the queries one /v1/batch request may carry
	// — like Options.MaxBodyBytes, a cap on the work a single well-formed
	// request can demand.
	maxBatchQueries = 256
	// maxBatchEdits bounds the edits one /v1/admin/mutate request may
	// carry.
	maxBatchEdits = 256
	// workloadFingerprints caps the per-fingerprint accounting table
	// behind /v1/debug/workload; the rarest fingerprint is evicted past
	// the cap.
	workloadFingerprints = 512
	// traceBufferSize bounds the slow traces retained on /v1/debug/traces.
	traceBufferSize = 64
)

// Options configure the HTTP layer. The zero value is serviceable.
type Options struct {
	// MaxBodyBytes bounds request bodies; 0 means 1 MiB.
	MaxBodyBytes int64
	// ReadOnly rejects every state-changing endpoint (mutate, reload,
	// checkpoint) with 403 — the posture of a read replica, whose state
	// changes only through replication.
	ReadOnly bool
	// Manifest, when set, is served on /v1/replicate/manifest so a
	// follower can build the same catalog locally before replaying the
	// primary's edits. It should return the same manifest the Loader
	// builds from.
	Manifest func() (*store.Catalog, error)
	// MinEpochWait bounds how long a query carrying min_epoch waits for
	// the dataset to reach that epoch before answering 412. 0 means 2s.
	MinEpochWait time.Duration
	// TraceThreshold tail-samples the slow-query log: a request's trace is
	// retained on /v1/debug/traces only when its total latency reaches the
	// threshold. 0 means 100ms; negative disables retention (requests are
	// still traced for EXPLAIN, just never retained).
	TraceThreshold time.Duration
	// MaxLagEpochs, on a follower, is the replication lag (epochs behind
	// the primary, worst shard) beyond which /healthz reports degraded
	// with a 503. 0 means 1000; negative disables the check.
	MaxLagEpochs int64
	// Logger receives the server's structured log lines (slow requests,
	// replication replays, sync failures); nil means slog.Default().
	Logger *slog.Logger
	// SLOTarget is the query-latency objective: the server tracks, over
	// SLOWindow, the fraction of /v1/query requests slower than the
	// target and exposes the error-budget burn rate on /metricsz and
	// /healthz (which reports "degraded" detail while the budget burns
	// hotter than it accrues). 0 disables SLO evaluation.
	SLOTarget time.Duration
	// SLOObjective is the fraction of queries that must meet SLOTarget,
	// strictly between 0 and 1 (New refuses any other); 0 means 0.99.
	SLOObjective float64
	// SLOWindow is the sliding window behind the burn rate and the
	// windowed latency quantiles; 0 means 5m.
	SLOWindow time.Duration
	// CapturePath enables the workload capture: a sampled, disk-budgeted
	// binary log of /v1/query requests (fingerprint, pattern, mode,
	// epoch, latency, result digest) that `xmatch workload replay` can
	// re-run and byte-diff. The file is truncated at server start. Empty
	// disables capture.
	CapturePath string
	// CaptureSampleN records 1 in N queries; 0 or 1 records all.
	CaptureSampleN int
	// CaptureBudgetBytes stops appending (but keeps counting what was
	// missed) once the capture file reaches this size; 0 means 64 MiB.
	CaptureBudgetBytes int64
	// QueryTimeout bounds every /v1 request end to end: the request
	// context carries the deadline, the engine's evaluators observe it at
	// their cancellation checkpoints, and an expired request answers 503
	// with a structured timeout body. A request may tighten (never extend)
	// the bound with its own timeout_ms. 0 means 30s; negative disables
	// the server-wide deadline (requests still honor their own timeout_ms
	// and client disconnects).
	QueryTimeout time.Duration
	// MaxInflight caps concurrently evaluating /v1/query and /v1/batch
	// requests; requests beyond it wait in a bounded queue for a slot.
	// 0 means 4× GOMAXPROCS; negative disables admission control.
	MaxInflight int
	// MaxQueue bounds the requests waiting for an admission slot; past it
	// the server sheds with 429 + Retry-After instead of queueing work it
	// cannot drain before the deadline. 0 means 2× MaxInflight.
	MaxQueue int
}

// Loader builds a fresh catalog: called once at startup and again on every
// /v1/admin/reload. It must return a fully constructed catalog — the server
// swaps it in atomically only on success, so a failed reload keeps serving
// the previous catalog.
type Loader func() (*Catalog, error)

// Server is the xmatchd HTTP handler.
type Server struct {
	opts   Options
	loader Loader
	// reloadMu serializes Reload (write side) against in-flight mutations
	// (read side): a reload's loader replays each dataset's edit log and
	// then publishes the catalog built from it, so a mutation applying —
	// and appending to a log — between that read and the publish would be
	// acknowledged yet missing from the new catalog (and its mid-append
	// write could tear the loader's read). Mutations on different
	// datasets still run concurrently; per-dataset ordering comes from
	// the delta handle. Reloads remain last-wins, in order.
	reloadMu sync.RWMutex
	cat      atomic.Pointer[Catalog]
	mux      *http.ServeMux
	stats    serverStats
	// follower is set on a read replica (NewFollower): the sync engine
	// that replays the primary's edit streams into this catalog. A
	// min_epoch query nudges it instead of waiting for the next tick.
	follower *replica.Follower
	// registry drives /metricsz: collectors read the server's live state
	// at scrape time, so the hot paths pay nothing between scrapes.
	registry *obs.Registry
	// traces is the bounded slow-request ring behind /v1/debug/traces.
	traces *obs.TraceLog
	// workload is the per-fingerprint accounting behind /v1/debug/workload
	// and the xmatch_workload_* metrics; capture is the sampled on-disk
	// request log (nil unless Options.CapturePath is set).
	workload *workloadStats
	capture  *captureLog
	logger   *slog.Logger
	// adm is the overload gate for the evaluation-heavy endpoints; nil
	// when Options.MaxInflight is negative (admission disabled).
	adm *admission
	// ready gates /readyz: flipped off by SetReady(false) at the start of
	// a graceful shutdown so load balancers stop routing before the
	// listener closes. Liveness (/healthz) is unaffected.
	ready atomic.Bool
}

// serverStats aggregates the daemon's operational counters. The collectors
// on the metrics registry read them at scrape time; /metricsz renders that
// registry as text and /statsz as JSON, so nothing here has a second
// reader.
type serverStats struct {
	start    time.Time
	inFlight atomic.Int64
	reloads  atomic.Uint64
	edits    atomic.Uint64
	errors   atomic.Uint64
	// timeouts counts 503s from fired request deadlines (or clients that
	// went away mid-request); shed counts 429s from the admission gate;
	// panics counts handler panics converted into 500s.
	timeouts atomic.Uint64
	shed     atomic.Uint64
	panics   atomic.Uint64

	// endpoints are the timed endpoints in declaration order; query is the
	// first of them, the one the SLO reads.
	endpoints []*endpoint
	query     *endpoint
}

// endpoint is one timed endpoint's accounting. Each is declared once (in
// New) and read from there: timed counts and times its requests,
// collectServer exports it, and the SLO reads the query endpoint's window.
type endpoint struct {
	name     string
	requests atomic.Uint64
	// lat is windowed: the embedded Histogram keeps the cumulative totals
	// /metricsz exposes, while Window() gives the sliding view the SLO
	// burn rate and the windowed quantile gauges read.
	lat *obs.Windowed
}

// windowSlots is the ring resolution of every windowed histogram: the
// window ages out in window/windowSlots steps, so a 5m window advances
// every 50s — coarse enough to stay cheap, fine enough that the burn
// rate reacts within a minute.
const windowSlots = 6

// declare adds a timed endpoint whose latency window spans window.
func (st *serverStats) declare(name string, window time.Duration) *endpoint {
	ep := &endpoint{name: name, lat: obs.NewWindowed(nil, window, windowSlots)}
	st.endpoints = append(st.endpoints, ep)
	return ep
}

// New builds a server over the loader's initial catalog.
func New(loader Loader, opts Options) (*Server, error) {
	if o := opts.SLOObjective; o < 0 || o >= 1 {
		return nil, fmt.Errorf("server: SLO objective %v outside (0, 1)", o)
	}
	cat, err := loader()
	if err != nil {
		return nil, err
	}
	// Zero means the documented default; MaxQueue defaults after MaxInflight.
	opts.MaxBodyBytes = cmp.Or(opts.MaxBodyBytes, 1<<20)
	opts.MinEpochWait = cmp.Or(opts.MinEpochWait, 2*time.Second)
	opts.TraceThreshold = cmp.Or(opts.TraceThreshold, 100*time.Millisecond)
	opts.MaxLagEpochs = cmp.Or(opts.MaxLagEpochs, 1000)
	opts.Logger = cmp.Or(opts.Logger, slog.Default())
	opts.SLOObjective = cmp.Or(opts.SLOObjective, 0.99)
	opts.SLOWindow = cmp.Or(opts.SLOWindow, 5*time.Minute)
	opts.CaptureBudgetBytes = cmp.Or(opts.CaptureBudgetBytes, 64<<20)
	opts.QueryTimeout = cmp.Or(opts.QueryTimeout, 30*time.Second)
	opts.MaxInflight = cmp.Or(opts.MaxInflight, 4*runtime.GOMAXPROCS(0))
	opts.MaxQueue = cmp.Or(opts.MaxQueue, 2*opts.MaxInflight)
	s := &Server{opts: opts, loader: loader, logger: opts.Logger}
	if opts.MaxInflight > 0 {
		s.adm = newAdmission(opts.MaxInflight, opts.MaxQueue)
	}
	s.ready.Store(true)
	s.stats.start = time.Now()
	// The timed endpoints, each declared once; replicate covers the three
	// replication routes.
	ep := func(name string) *endpoint { return s.stats.declare(name, opts.SLOWindow) }
	s.stats.query = ep("query")
	batch, mutate, checkpoint, replicate := ep("batch"), ep("mutate"), ep("checkpoint"), ep("replicate")
	s.workload = newWorkloadStats(workloadFingerprints, opts.SLOWindow)
	s.traces = obs.NewTraceLog(traceBufferSize, opts.TraceThreshold)
	s.registry = s.newRegistry()
	s.cat.Store(cat)
	if opts.CapturePath != "" {
		cl, err := newCaptureLog(opts.CapturePath, opts.CaptureSampleN, opts.CaptureBudgetBytes, opts.Logger)
		if err != nil {
			return nil, fmt.Errorf("workload capture: %w", err)
		}
		s.capture = cl
	}
	// Every /v1 endpoint runs under the request deadline and the panic
	// boundary: the traced ones through timed and the request pipeline,
	// the rest under guard. The health/stats/metrics probes stay outside
	// both so an operator can always inspect a struggling server.
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/query", s.timed(s.stats.query, http.MethodPost, evalRoute, s.handleQuery))
	s.mux.HandleFunc("/v1/batch", s.timed(batch, http.MethodPost, evalRoute, s.handleBatch))
	s.mux.HandleFunc("/v1/datasets", s.guard("datasets", http.MethodGet, s.handleDatasets))
	s.mux.HandleFunc("/v1/admin/reload", s.guard("reload", http.MethodPost, s.handleReload))
	s.mux.HandleFunc("/v1/admin/mutate", s.timed(mutate, http.MethodPost, writeRoute, s.handleMutate))
	s.mux.HandleFunc("/v1/admin/checkpoint", s.timed(checkpoint, http.MethodPost, writeRoute, s.handleCheckpoint))
	s.mux.HandleFunc(replica.StreamEndpoint, s.timed(replicate, http.MethodPost, readRoute, s.handleReplicateStream))
	s.mux.HandleFunc(replica.CheckpointEndpoint, s.timed(replicate, http.MethodGet, readRoute, s.handleReplicateCheckpoint))
	s.mux.HandleFunc(replica.ManifestEndpoint, s.timed(replicate, http.MethodGet, readRoute, s.handleReplicateManifest))
	s.mux.HandleFunc("/healthz", s.probe(s.handleHealthz))
	s.mux.HandleFunc("/readyz", s.probe(s.handleReadyz))
	s.mux.HandleFunc("/statsz", s.probe(s.handleStatsz))
	s.mux.HandleFunc("/metricsz", s.probe(s.handleMetricsz))
	s.mux.HandleFunc("/v1/debug/traces", s.guard("traces", http.MethodGet, s.handleTraces))
	s.mux.HandleFunc("/v1/debug/workload", s.guard("workload", http.MethodGet, s.handleDebugWorkload))
	return s, nil
}

// SetReady flips the /readyz gate. xmatchd calls SetReady(false) when a
// shutdown signal arrives — before http.Server.Shutdown closes the
// listener — so load balancers drain the instance while in-flight
// requests finish.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Close releases the server's workload-capture file. Serving after Close
// keeps working; captures are just no longer recorded.
func (s *Server) Close() error {
	if s.capture != nil {
		return s.capture.close()
	}
	return nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Catalog returns the current catalog snapshot.
func (s *Server) Catalog() *Catalog { return s.cat.Load() }

// Reload rebuilds the catalog through the loader and swaps it in,
// returning the new dataset names. On error the old catalog stays active.
// Reloads are serialized so overlapping calls cannot finish out of order
// and resurrect a stale catalog.
func (s *Server) Reload() ([]string, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	cat, err := s.loader()
	if err != nil {
		return nil, err
	}
	if old := s.cat.Swap(cat); old != nil {
		// The retired catalog's indexes may be pinned by in-flight requests
		// for a while yet, but their result memos — whole cached evaluations
		// over the old epochs — would otherwise keep entire superseded
		// documents reachable for as long as the memo maps live. Purging is
		// safe under concurrent queries: an in-flight evaluation just sees a
		// cold cache and recomputes against its pinned snapshot.
		// Retiring the old generation's replication logs closes the other
		// half of the race: a mutate or checkpoint that resolved the old
		// collection before the swap fails its log write instead of
		// interleaving with the new generation's writer on the same file.
		for _, d := range old.Datasets() {
			for _, sh := range d.Shards() {
				sh.Live.Snapshot().Index.PurgeMemo()
				if sh.Log != nil {
					sh.Log.Retire()
				}
			}
		}
	}
	if s.follower != nil {
		s.wireFollower(cat)
	}
	s.stats.reloads.Add(1)
	return slices.Clone(cat.names), nil
}

// errorResponse is the body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON encodes v before it commits the status, so a value JSON cannot
// carry (a NaN or infinite float) answers 500 instead of an empty 200.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(errorResponse{Error: "encoding response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(body, '\n'))
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.stats.errors.Add(1)
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// method enforces a handler's single allowed HTTP method, answering 405
// with an Allow header otherwise. Returns true when the request may
// proceed.
func (s *Server) method(w http.ResponseWriter, r *http.Request, want string) bool {
	if r.Method != want {
		w.Header().Set("Allow", want)
		s.fail(w, http.StatusMethodNotAllowed, "use %s", want)
		return false
	}
	return true
}
