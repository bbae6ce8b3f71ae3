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
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xmatch/internal/core"
	"xmatch/internal/delta"
	"xmatch/internal/engine"
	"xmatch/internal/index"
	"xmatch/internal/obs"
	"xmatch/internal/replica"
	"xmatch/internal/store"
	"xmatch/internal/xmltree"
)

// Options configure the HTTP layer. The zero value is serviceable.
type Options struct {
	// MaxBodyBytes bounds request bodies; 0 means 1 MiB.
	MaxBodyBytes int64
	// MaxBatchQueries bounds the queries one /v1/batch request may carry
	// — like MaxBodyBytes, a cap on the work a single well-formed request
	// can demand. 0 means 256.
	MaxBatchQueries int
	// MaxBatchEdits bounds the edits one /v1/admin/mutate request may
	// carry. 0 means 256.
	MaxBatchEdits int
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
	// TraceBufferSize bounds the retained slow traces; 0 means 64.
	TraceBufferSize int
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
	// WorkloadFingerprints caps the per-fingerprint accounting table
	// behind /v1/debug/workload; the rarest fingerprint is evicted past
	// the cap. 0 means 512.
	WorkloadFingerprints int
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

// New builds a server over the loader's initial catalog.
func New(loader Loader, opts Options) (*Server, error) {
	if o := opts.SLOObjective; o < 0 || o >= 1 {
		return nil, fmt.Errorf("server: SLO objective %v outside (0, 1)", o)
	}
	cat, err := loader()
	if err != nil {
		return nil, err
	}
	if opts.MaxBodyBytes == 0 {
		opts.MaxBodyBytes = 1 << 20
	}
	if opts.MaxBatchQueries == 0 {
		opts.MaxBatchQueries = 256
	}
	if opts.MaxBatchEdits == 0 {
		opts.MaxBatchEdits = 256
	}
	if opts.MinEpochWait == 0 {
		opts.MinEpochWait = 2 * time.Second
	}
	if opts.TraceThreshold == 0 {
		opts.TraceThreshold = 100 * time.Millisecond
	}
	if opts.MaxLagEpochs == 0 {
		opts.MaxLagEpochs = 1000
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	if opts.SLOObjective == 0 {
		opts.SLOObjective = 0.99
	}
	if opts.SLOWindow == 0 {
		opts.SLOWindow = 5 * time.Minute
	}
	if opts.CaptureBudgetBytes == 0 {
		opts.CaptureBudgetBytes = 64 << 20
	}
	if opts.WorkloadFingerprints == 0 {
		opts.WorkloadFingerprints = 512
	}
	if opts.QueryTimeout == 0 {
		opts.QueryTimeout = 30 * time.Second
	}
	if opts.MaxInflight == 0 {
		opts.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	if opts.MaxQueue == 0 {
		opts.MaxQueue = 2 * opts.MaxInflight
	}
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
	s.workload = newWorkloadStats(opts.WorkloadFingerprints, opts.SLOWindow)
	s.traces = obs.NewTraceLog(opts.TraceBufferSize, opts.TraceThreshold)
	s.registry = s.newRegistry()
	s.cat.Store(cat)
	if opts.CapturePath != "" {
		cl, err := newCaptureLog(opts.CapturePath, opts.CaptureSampleN, opts.CaptureBudgetBytes, opts.Logger)
		if err != nil {
			return nil, fmt.Errorf("workload capture: %w", err)
		}
		s.capture = cl
	}
	// Every /v1 endpoint runs under guard (request deadline + panic
	// recovery), the traced ones through timed; the health/stats/metrics
	// probes stay outside it so an operator can always inspect a struggling
	// server.
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/query", s.timed(s.stats.query, http.MethodPost, s.handleQuery))
	s.mux.HandleFunc("/v1/batch", s.timed(batch, http.MethodPost, s.handleBatch))
	s.mux.HandleFunc("/v1/datasets", s.guard("datasets", s.handleDatasets))
	s.mux.HandleFunc("/v1/admin/reload", s.guard("reload", s.handleReload))
	s.mux.HandleFunc("/v1/admin/mutate", s.timed(mutate, http.MethodPost, s.handleMutate))
	s.mux.HandleFunc("/v1/admin/checkpoint", s.timed(checkpoint, http.MethodPost, s.handleCheckpoint))
	s.mux.HandleFunc(replica.StreamEndpoint, s.timed(replicate, http.MethodPost, s.handleReplicateStream))
	s.mux.HandleFunc(replica.CheckpointEndpoint, s.timed(replicate, http.MethodGet, s.handleReplicateCheckpoint))
	s.mux.HandleFunc(replica.ManifestEndpoint, s.timed(replicate, http.MethodGet, s.handleReplicateManifest))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	s.mux.HandleFunc("/metricsz", s.handleMetricsz)
	s.mux.HandleFunc("/v1/debug/traces", s.guard("traces", s.handleTraces))
	s.mux.HandleFunc("/v1/debug/workload", s.guard("workload", s.handleDebugWorkload))
	return s, nil
}

// SetReady flips the /readyz gate. xmatchd calls SetReady(false) when a
// shutdown signal arrives — before http.Server.Shutdown closes the
// listener — so load balancers drain the instance while in-flight
// requests finish.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports the /readyz gate's current position.
func (s *Server) Ready() bool { return s.ready.Load() }

// Close releases the server's owned resources: today that is the
// workload-capture file.
// Serving after Close keeps working; captures are just no longer
// recorded.
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
	names := make([]string, 0, len(cat.names))
	names = append(names, cat.names...)
	return names, nil
}

// requestEngine is the engine view a request evaluates on: it observes
// the request's context, and one call on it splits into at most half the
// dataset's pool (rounded up), so one request cannot claim every slot.
func requestEngine(ctx context.Context, d *Dataset) *engine.Engine {
	return d.Engine.Sub((d.Engine.Workers() + 1) / 2).WithContext(ctx)
}

// Wire types of the query API. The server decodes requests into them; the
// query and batch responses it renders itself (render.go), byte-identical
// to encoding/json's rendering of QueryResponse / BatchResponse, which are
// what clients decode into and what the tests compare the rendered bytes
// against.

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	Dataset string `json:"dataset"`
	Pattern string `json:"pattern"`
	// Mode selects the evaluator: "compact" (block tree; the default),
	// "basic" (Algorithm 3 over all mappings), or "topk" (requires K > 0).
	Mode string `json:"mode,omitempty"`
	K    int    `json:"k,omitempty"`
	// MinEpoch demands read-your-writes: the query waits (bounded) until
	// the dataset's epoch reaches MinEpoch — on a follower, until
	// replication has caught up with the write that produced the token —
	// and answers 412 if it cannot. 0 reads whatever is current.
	MinEpoch uint64 `json:"min_epoch,omitempty"`
	// Explain asks for the response's Explain block: the request's trace
	// plus per-shard index-matcher counters. ?explain=1 on the URL does
	// the same.
	Explain bool `json:"explain,omitempty"`
	// TimeoutMs tightens the server's request deadline for this query;
	// values beyond the server-wide bound are capped to it. 0 uses the
	// server default.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// QueryResponse is the body of a successful POST /v1/query.
type QueryResponse struct {
	Dataset string `json:"dataset"`
	Pattern string `json:"pattern"`
	Mode    string `json:"mode"`
	K       int    `json:"k,omitempty"`
	// Epoch is the consistency token of the state the query saw: the
	// highest per-shard epoch among the snapshots it pinned. Hand it to a
	// later query's min_epoch (on any replica) to read at-or-after this
	// state.
	Epoch   uint64            `json:"epoch"`
	Results []core.WireResult `json:"results"`
	Answers []core.WireAnswer `json:"answers"`
	// Explain is present when the request asked for it; see ExplainData.
	Explain *ExplainData `json:"explain,omitempty"`
}

// BatchQuery is one query of a POST /v1/batch body.
type BatchQuery struct {
	Pattern string `json:"pattern"`
	// K > 0 evaluates the top-k PTQ for this query; 0 evaluates the full
	// compact PTQ.
	K int `json:"k,omitempty"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Dataset string       `json:"dataset"`
	Queries []BatchQuery `json:"queries"`
	// MinEpoch demands read-your-writes for the whole batch; see
	// QueryRequest.MinEpoch.
	MinEpoch uint64 `json:"min_epoch,omitempty"`
	// TimeoutMs tightens the server's request deadline for this batch;
	// see QueryRequest.TimeoutMs.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// BatchAnswer is one per-query answer within a BatchResponse; Error is set
// (and Results/Answers are null) when that query failed. Results and
// Answers carry no omitempty so an empty answer encodes as [] exactly like
// a /v1/query response — the wire form of a result set never depends on
// which endpoint produced it.
type BatchAnswer struct {
	Pattern string            `json:"pattern"`
	K       int               `json:"k,omitempty"`
	Results []core.WireResult `json:"results"`
	Answers []core.WireAnswer `json:"answers"`
	Error   string            `json:"error,omitempty"`
}

// BatchResponse is the body of a successful POST /v1/batch; Responses
// preserve request order.
type BatchResponse struct {
	Dataset string `json:"dataset"`
	// Epoch is the consistency token of the pinned state; see
	// QueryResponse.Epoch.
	Epoch     uint64        `json:"epoch"`
	Responses []BatchAnswer `json:"responses"`
}

// DatasetInfo is one row of GET /v1/datasets.
type DatasetInfo struct {
	Name     string `json:"name"`
	Source   string `json:"source"`
	Target   string `json:"target"`
	Mappings int    `json:"mappings"`
	DocNodes int    `json:"docNodes"`
	// Epoch is the collection's highest per-shard mutation epoch
	// (0 = every shard pristine).
	Epoch uint64 `json:"epoch"`
	// Shards is the number of member documents (1 = classic single
	// document); DocNodes totals across them.
	Shards int `json:"shards"`
	Blocks int `json:"blocks"`
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

// failBody maps a decodeBody error onto the right status: an oversized
// body is 413 (the request was well-formed, just too big — retrying it
// unchanged cannot help), anything else is 400. Every body-decoding
// handler routes through here so the two cases stay uniform across
// endpoints.
func (s *Server) failBody(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.fail(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
		return
	}
	s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
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

// timed wraps a handler with method enforcement, the in-flight gauge, the
// endpoint's request counter and latency histogram, request-scoped
// tracing and the guard envelope: it mints a request ID, threads a span
// recorder through the request context (handlers and the engine's shard
// observer record into it), and finishes the trace into the tail-sampled
// slow-query log. A retained trace also emits one structured log line
// carrying the request ID, so logs and /v1/debug/traces correlate. The admin and replication
// endpoints run under the same wrapper as the query path, so a
// checkpoint or replica pull is as traceable as any query.
func (s *Server) timed(ep *endpoint, method string, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.method(w, r, method) {
			return
		}
		ep.requests.Add(1)
		s.stats.inFlight.Add(1)
		id := obs.RequestID()
		tr := obs.NewTrace(id)
		w.Header().Set("X-Request-Id", id)
		start := time.Now()
		defer func() {
			total := time.Since(start)
			ep.lat.Observe(total)
			s.stats.inFlight.Add(-1)
			if s.traces.Finish(tr, total, tr.Dataset(), ep.name) {
				s.logger.Info("slow request",
					"id", id,
					"endpoint", ep.name,
					"dataset", tr.Dataset(),
					"ms", float64(total.Microseconds())/1e3)
			}
		}()
		s.guarded(obs.WithTrace(r.Context(), tr), ep.name, fn, w, r)
	}
}

// guard wraps a /v1 handler with the fault-tolerance envelope: the
// server-wide request deadline (Options.QueryTimeout) on the request
// context, and panic recovery that converts an evaluation panic into a
// 500 carrying the request ID while the stack goes to the structured
// log — one broken request must not take the daemon down with it.
func (s *Server) guard(endpoint string, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { s.guarded(r.Context(), endpoint, fn, w, r) }
}

// guarded runs fn inside the guard envelope. ctx is the request's context
// with whatever the caller layered on it (timed: the trace); the deadline
// goes on top, and the request the handler sees is derived from r once.
func (s *Server) guarded(ctx context.Context, endpoint string, fn http.HandlerFunc, w http.ResponseWriter, r *http.Request) {
	if s.opts.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.QueryTimeout)
		defer cancel()
	}
	r = r.WithContext(ctx)
	defer func() {
		if p := recover(); p != nil {
			id := w.Header().Get("X-Request-Id")
			s.stats.panics.Add(1)
			s.logger.Error("handler panic",
				"endpoint", endpoint,
				"id", id,
				"panic", fmt.Sprint(p),
				"stack", string(debug.Stack()))
			s.fail(w, http.StatusInternalServerError, "internal error serving %s (request %s)", endpoint, id)
		}
	}()
	fn(w, r)
}

// TimeoutResponse is the body of a 503 produced by an expired request
// deadline (or a client that went away mid-request).
type TimeoutResponse struct {
	Error string `json:"error"`
	// Stage names where the deadline fired: "queued" (still waiting for
	// an admission slot), "await_epoch", or "evaluate".
	Stage string `json:"stage"`
	// TimeoutMs is the effective bound the request ran under (the
	// tighter of the server-wide deadline and the request's timeout_ms);
	// 0 when only the client's own cancellation applied.
	TimeoutMs float64 `json:"timeoutMs,omitempty"`
	RequestID string  `json:"requestId,omitempty"`
}

// failTimeout answers a request whose context ended before its work did:
// 503 with a structured body naming the stage that was cut short. A
// client disconnect takes the same path — there is nobody left to read
// the body, but the counters and log line still record the abort.
func (s *Server) failTimeout(w http.ResponseWriter, ctx context.Context, stage string, timeout time.Duration) {
	s.stats.timeouts.Add(1)
	s.stats.errors.Add(1)
	msg := "request deadline exceeded"
	if errors.Is(ctx.Err(), context.Canceled) {
		msg = "request canceled by client"
	}
	resp := TimeoutResponse{
		Error:     msg + " during " + stage,
		Stage:     stage,
		RequestID: w.Header().Get("X-Request-Id"),
	}
	if timeout > 0 {
		resp.TimeoutMs = float64(timeout.Microseconds()) / 1e3
	}
	writeJSON(w, http.StatusServiceUnavailable, resp)
}

// queryTimeout resolves the effective deadline of a request carrying an
// optional timeout_ms override: the override tightens the server-wide
// bound, never extends it (the parent context already carries the
// server's deadline, so an over-large override is a no-op).
func (s *Server) queryTimeout(timeoutMs int64) time.Duration {
	timeout := s.opts.QueryTimeout
	if timeout < 0 {
		timeout = 0
	}
	if timeoutMs > 0 {
		if d := time.Duration(timeoutMs) * time.Millisecond; timeout == 0 || d < timeout {
			timeout = d
		}
	}
	return timeout
}

// admit gates an evaluation-heavy request through the admission queue,
// writing the shed or timeout response itself when the request cannot
// proceed. The caller must defer release() when ok.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if s.adm == nil {
		return func() {}, true
	}
	release, err := s.adm.acquire(r.Context())
	switch {
	case err == nil:
		return release, true
	case errors.Is(err, errQueueFull):
		s.stats.shed.Add(1)
		// A shed request should come back after the backlog drains, not
		// instantly: one second is coarse but honest for a queue sized to
		// the server's own drain rate.
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusTooManyRequests, "server overloaded: %d requests evaluating, %d queued",
			s.adm.inFlight(), s.adm.queueDepth())
		return nil, false
	default:
		s.failTimeout(w, r.Context(), "queued", s.queryTimeout(0))
		return nil, false
	}
}

// shardDocs projects pinned snapshots onto the documents the engine's
// Across evaluators scatter over.
func shardDocs(snaps []*delta.Snapshot) []*xmltree.Document {
	docs := make([]*xmltree.Document, len(snaps))
	for i, sn := range snaps {
		docs[i] = sn.Doc
	}
	return docs
}

// snapsEpoch is the consistency token of a pinned snapshot set: the
// highest per-shard epoch. Per-shard epochs advance independently, so
// for a multi-shard collection the token is an upper bound — exact for
// the single-shard case, where it names one state precisely.
func snapsEpoch(snaps []*delta.Snapshot) uint64 {
	var epoch uint64
	for _, sn := range snaps {
		if sn.Epoch > epoch {
			epoch = sn.Epoch
		}
	}
	return epoch
}

// awaitEpoch blocks until the dataset's epoch reaches min, the bounded
// wait expires, or the request context ends — read-your-writes for a
// client holding a mutate or query epoch token. The wait is event-driven:
// each shard handle broadcasts a publish by closing its Changed()
// channel, so a waiter wakes on the exact mutation that might satisfy it
// instead of polling. On a follower each round additionally nudges the
// sync engine inline (and re-nudges on a short ticker, since a lagging
// follower's local publishes only happen when a nudge lands records), so
// the common catch-up is one stream round-trip.
func (s *Server) awaitEpoch(ctx context.Context, tr *obs.Trace, ds *Dataset, min uint64) bool {
	deadline := time.NewTimer(s.opts.MinEpochWait)
	defer deadline.Stop()
	var nudgeC <-chan time.Time
	if s.follower != nil {
		nudge := time.NewTicker(25 * time.Millisecond)
		defer nudge.Stop()
		nudgeC = nudge.C
	}
	for {
		// Grab every shard's change channel before reading the epochs: a
		// publish after the read necessarily closes a channel already in
		// hand, so a wake-up cannot be lost between check and wait.
		shards := ds.Shards()
		chans := make([]<-chan struct{}, len(shards))
		for i, sh := range shards {
			chans[i] = sh.Live.Changed()
		}
		if snapsEpoch(ds.Snapshots()) >= min {
			return true
		}
		if s.follower != nil {
			// An inline nudge replays the primary's pending records on this
			// goroutine, so the replay shows up as a span of the request that
			// demanded the epoch.
			reg := tr.Region("replica_sync", ds.Name)
			_ = s.follower.Sync(ds.Name) // errors surface as lag; keep waiting
			reg.End()
			if snapsEpoch(ds.Snapshots()) >= min {
				return true
			}
		}
		wake, stop := mergeChanged(chans)
		select {
		case <-wake:
			stop()
		case <-nudgeC:
			stop()
		case <-deadline.C:
			stop()
			return snapsEpoch(ds.Snapshots()) >= min
		case <-ctx.Done():
			stop()
			return snapsEpoch(ds.Snapshots()) >= min
		}
	}
}

// mergeChanged folds per-shard change channels into one wake-up. The
// single-shard case (nearly every dataset) selects on the handle's
// channel directly; a multi-shard merge parks one goroutine per shard,
// all released by stop() when the waiter moves on.
func mergeChanged(chans []<-chan struct{}) (wake <-chan struct{}, stop func()) {
	if len(chans) == 1 {
		return chans[0], func() {}
	}
	merged := make(chan struct{})
	quit := make(chan struct{})
	var once sync.Once
	for _, c := range chans {
		go func(c <-chan struct{}) {
			select {
			case <-c:
				once.Do(func() { close(merged) })
			case <-quit:
			}
		}(c)
	}
	var stopOnce sync.Once
	return merged, func() { stopOnce.Do(func() { close(quit) }) }
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	tr := obs.TraceFrom(r.Context())
	req, err := s.decodeQuery(w, r)
	if err != nil {
		s.failBody(w, err)
		return
	}
	ctx := r.Context()
	if req.TimeoutMs > 0 {
		// The override only tightens: the context already carries the
		// server-wide deadline, and WithTimeout never extends a parent.
		tctx, cancel := context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
		defer cancel()
		ctx = tctx
	}
	timeout := s.queryTimeout(req.TimeoutMs)
	// RawQuery is empty on nearly every request; only a non-empty one is parsed.
	explain := req.Explain || (r.URL.RawQuery != "" && r.URL.Query().Get("explain") == "1")
	ds := s.Catalog().Get(req.Dataset)
	if ds == nil {
		s.fail(w, http.StatusNotFound, "unknown dataset %q", req.Dataset)
		return
	}
	tr.SetDataset(req.Dataset)
	// Validate the mode before preparing: rejecting a bad request must not
	// pay parse/resolve or churn the prepared-query cache.
	mode := req.Mode
	if mode == "" {
		mode = "compact"
	}
	switch mode {
	case "basic", "compact":
	case "topk":
		if req.K <= 0 {
			s.fail(w, http.StatusBadRequest, "mode topk requires k > 0")
			return
		}
	default:
		s.fail(w, http.StatusBadRequest, "unknown mode %q (want basic, compact, or topk)", mode)
		return
	}
	if req.MinEpoch > 0 {
		reg := tr.Region("await_epoch", "min_epoch="+strconv.FormatUint(req.MinEpoch, 10))
		ok := s.awaitEpoch(ctx, tr, ds, req.MinEpoch)
		reg.End()
		if !ok {
			if ctx.Err() != nil {
				s.failTimeout(w, ctx, "await_epoch", timeout)
				return
			}
			s.fail(w, http.StatusPreconditionFailed, "dataset %q at epoch %d, below requested min_epoch %d",
				req.Dataset, snapsEpoch(ds.Snapshots()), req.MinEpoch)
			return
		}
	}
	// Pin every shard's snapshot once: each evaluation below sees these
	// exact (document, index) pairs even if a mutation lands mid-request.
	// The context view makes the evaluators abandon work promptly once the
	// deadline fires or the client goes away.
	snaps := ds.Snapshots()
	eng := requestEngine(ctx, ds)
	prepStart := time.Now()
	q, cached, err := eng.PrepareCached(req.Pattern, ds.Set)
	prepDetail := "cached=false"
	if cached {
		prepDetail = "cached=true"
	}
	tr.Add("prepare", prepDetail, prepStart, time.Since(prepStart))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	var before []index.CountersSnapshot
	if explain {
		before = shardCounters(snaps)
	}
	sh := engine.Shards{Docs: shardDocs(snaps), Observe: traceObserver(tr, ds)}
	evalReg := tr.Region("evaluate", mode)
	var results []core.Result
	switch mode {
	case "basic":
		results = eng.EvaluateBasicAcross(q, ds.Set, sh)
	case "compact":
		results = eng.EvaluateAcross(q, ds.Set, sh, ds.Tree)
	default: // topk
		results = eng.EvaluateTopKAcross(q, ds.Set, sh, ds.Tree, req.K)
	}
	evalReg.End()
	// The results are this request's alone and nothing below keeps them
	// past the body, so their array goes back for the next evaluation.
	defer core.ReleaseResults(results)
	// A fired deadline means the evaluators returned partial results;
	// they are discarded, never served.
	if ctx.Err() != nil {
		s.failTimeout(w, ctx, "evaluate", timeout)
		return
	}
	aggReg := tr.Region("aggregate", "")
	answers := core.AggregateLeaf(q, results)
	aggReg.End()
	epoch := snapsEpoch(snaps)
	// The body is rendered whole before anything is accounted or written,
	// so the latency the workload table and the capture record see includes
	// the encode — the largest stage of a big compact answer.
	body := getBody()
	defer body.release()
	encReg := tr.Region("encode", "")
	var payload payloadSpans
	body.b, payload = appendQueryBody(body.b, req.Dataset, req.Pattern, mode, req.K, epoch, ds.heads, results, answers)
	encReg.End()
	if explain {
		body.b = append(body.b, `,"explain":`...)
		tree := ds.Tree
		if mode == "basic" {
			tree = nil // Algorithm 3 is the plan over no c-blocks
		}
		plan := q.Plan(ds.Set, tree).Stats()
		body.b = appendJSON(body.b, buildExplain(tr, &plan, snaps, before))
	}
	body.b = append(body.b, '}', '\n')
	// Workload accounting happens on the response the client is about to
	// receive: the fingerprint keys the prepared query's canonical pattern
	// (not the request text), and the capture's digest covers the exact
	// wire results and answers, so a replay diffs against what was served.
	// The row and the record carry the k the fingerprint hashed — the
	// request's only in topk mode — so every request sharing a fingerprint
	// files the same (mode, k); the response above echoes the request's.
	k := engine.FingerprintK(mode, req.K)
	fp := engine.FingerprintPattern(req.Dataset, q.Canonical, mode, k)
	latency := time.Since(start)
	s.workload.record(fp, req.Dataset, q.Canonical, mode, k, cached, len(results), epoch, latency)
	if s.capture.sample() {
		// The digest is hashed from the rendered bytes before the log takes
		// its mutex; a sampled-out request never pays for it.
		s.capture.record(store.WorkloadRecord{
			Fingerprint: fp,
			Dataset:     req.Dataset,
			Pattern:     q.Canonical,
			Mode:        mode,
			K:           k,
			Epoch:       epoch,
			LatencyUs:   latency.Microseconds(),
			Digest:      digestPayload(body.b, payload),
		})
	}
	writeBody(w, body.b)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	tr := obs.TraceFrom(r.Context())
	var req BatchRequest
	if err := s.decodeBody(w, r.Body, &req); err != nil {
		s.failBody(w, err)
		return
	}
	ctx := r.Context()
	if req.TimeoutMs > 0 {
		tctx, cancel := context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
		defer cancel()
		ctx = tctx
	}
	timeout := s.queryTimeout(req.TimeoutMs)
	ds := s.Catalog().Get(req.Dataset)
	if ds == nil {
		s.fail(w, http.StatusNotFound, "unknown dataset %q", req.Dataset)
		return
	}
	tr.SetDataset(req.Dataset)
	if len(req.Queries) == 0 {
		s.fail(w, http.StatusBadRequest, "batch has no queries")
		return
	}
	if len(req.Queries) > s.opts.MaxBatchQueries {
		s.fail(w, http.StatusBadRequest, "batch has %d queries, limit %d", len(req.Queries), s.opts.MaxBatchQueries)
		return
	}
	if req.MinEpoch > 0 {
		reg := tr.Region("await_epoch", "min_epoch="+strconv.FormatUint(req.MinEpoch, 10))
		ok := s.awaitEpoch(ctx, tr, ds, req.MinEpoch)
		reg.End()
		if !ok {
			if ctx.Err() != nil {
				s.failTimeout(w, ctx, "await_epoch", timeout)
				return
			}
			s.fail(w, http.StatusPreconditionFailed, "dataset %q at epoch %d, below requested min_epoch %d",
				req.Dataset, snapsEpoch(ds.Snapshots()), req.MinEpoch)
			return
		}
	}
	// One snapshot pin per shard for the whole batch: its queries are
	// answered over a single consistent per-shard document state.
	snaps := ds.Snapshots()
	eng := requestEngine(ctx, ds)
	sh := engine.Shards{Docs: shardDocs(snaps), Observe: traceObserver(tr, ds)}
	engReqs := make([]engine.Request, len(req.Queries))
	for i, bq := range req.Queries {
		engReqs[i] = engine.Request{Pattern: bq.Pattern, K: bq.K}
	}
	evalReg := tr.Region("evaluate", "queries="+strconv.Itoa(len(engReqs)))
	evaluated := eng.EvaluateBatchAcross(ds.Set, sh, ds.Tree, engReqs)
	evalReg.End()
	defer func() { // as in handleQuery: once the body is written
		for _, er := range evaluated {
			core.ReleaseResults(er.Results)
		}
	}()
	if ctx.Err() != nil {
		s.failTimeout(w, ctx, "evaluate", timeout)
		return
	}
	aggReg := tr.Region("aggregate", "")
	answers := make([][]core.Answer, len(evaluated))
	for i, er := range evaluated {
		if er.Err == nil {
			answers[i] = core.AggregateLeaf(er.Query, er.Results)
		}
	}
	aggReg.End()
	body := getBody()
	defer body.release()
	encReg := tr.Region("encode", "")
	body.b = appendBatchBody(body.b, req.Dataset, snapsEpoch(snaps), ds.heads, evaluated, answers)
	encReg.End()
	writeBody(w, body.b)
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	if !s.method(w, r, http.MethodGet) {
		return
	}
	cat := s.Catalog()
	infos := make([]DatasetInfo, 0, len(cat.names))
	for _, d := range cat.Datasets() {
		var nodes int
		var epoch uint64
		for _, snap := range d.Snapshots() {
			nodes += snap.Doc.Len()
			if snap.Epoch > epoch {
				epoch = snap.Epoch
			}
		}
		infos = append(infos, DatasetInfo{
			Name:     d.Name,
			Source:   d.Set.Source.Name,
			Target:   d.Set.Target.Name,
			Mappings: d.Set.Len(),
			DocNodes: nodes,
			Epoch:    epoch,
			Shards:   d.NumShards(),
			Blocks:   d.Tree.Stats().NumBlocks,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": infos})
}

// MutateRequest is the body of POST /v1/admin/mutate: one edit batch for
// one dataset, applied atomically in order.
type MutateRequest struct {
	Dataset string `json:"dataset"`
	// Shard selects the member document of a sharded collection the batch
	// applies to; 0 (the default) is the single document of a classic
	// dataset.
	Shard int          `json:"shard,omitempty"`
	Edits []delta.Edit `json:"edits"`
}

// MutateResponse is the body of a successful POST /v1/admin/mutate.
type MutateResponse struct {
	Dataset string `json:"dataset"`
	// Shard echoes the member document the batch landed on.
	Shard int `json:"shard,omitempty"`
	// Epoch is the shard's document epoch the batch produced; queries
	// arriving after this response see it.
	Epoch    uint64 `json:"epoch"`
	Applied  int    `json:"applied"`
	DocNodes int    `json:"docNodes"`
	// Persisted reports whether the batch was appended to the dataset's
	// edit log (false for datasets without one: the mutation is
	// in-memory only and will not survive a reload).
	Persisted bool `json:"persisted"`
}

// readOnly rejects a state-changing request on a read replica. Returns
// true when the request was rejected.
func (s *Server) readOnly(w http.ResponseWriter) bool {
	if !s.opts.ReadOnly {
		return false
	}
	primary := ""
	if s.follower != nil {
		primary = " (follower of " + s.follower.Primary() + ")"
	}
	s.fail(w, http.StatusForbidden, "read-only replica%s: state changes only through replication", primary)
	return true
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	tr := obs.TraceFrom(r.Context())
	if s.readOnly(w) {
		return
	}
	var req MutateRequest
	if err := s.decodeBody(w, r.Body, &req); err != nil {
		s.failBody(w, err)
		return
	}
	tr.SetDataset(req.Dataset)
	if req.Shard < 0 {
		s.fail(w, http.StatusBadRequest, "negative shard %d", req.Shard)
		return
	}
	if len(req.Edits) == 0 {
		s.fail(w, http.StatusBadRequest, "mutation has no edits")
		return
	}
	if len(req.Edits) > s.opts.MaxBatchEdits {
		s.fail(w, http.StatusBadRequest, "mutation has %d edits, limit %d", len(req.Edits), s.opts.MaxBatchEdits)
		return
	}
	if err := delta.Validate(req.Edits); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The reload read-lock covers dataset resolution through apply-and-log:
	// otherwise a reload could swap the catalog in between, and the batch
	// would land on the superseded dataset (and in the edit log) after the
	// reload's replay had already read the log — acknowledged, persisted,
	// yet absent from the serving catalog until the next reload. The
	// handle itself serializes writers per dataset and orders log appends
	// exactly like the batches they record; readers keep their pinned
	// snapshots throughout and never touch this lock.
	s.reloadMu.RLock()
	ds := s.Catalog().Get(req.Dataset)
	if ds == nil {
		s.reloadMu.RUnlock()
		s.fail(w, http.StatusNotFound, "unknown dataset %q", req.Dataset)
		return
	}
	if req.Shard >= ds.NumShards() {
		s.reloadMu.RUnlock()
		s.fail(w, http.StatusBadRequest, "dataset %q has %d shards, no shard %d", req.Dataset, ds.NumShards(), req.Shard)
		return
	}
	shard := ds.Shards()[req.Shard]
	// Every applied batch goes through the shard's replication log — the
	// durable edit-log append (fsynced before the ack) when the entry
	// persists mutations, and the in-memory retention followers stream
	// from either way. A log retired by a concurrent reload refuses the
	// append, failing the mutate instead of writing to a file the new
	// catalog generation now owns.
	applyReg := tr.Region("apply", "shard="+strconv.Itoa(req.Shard)+" edits="+strconv.Itoa(len(req.Edits)))
	snap, err := shard.Live.ApplyTraced(tr, req.Edits, shard.Log.Append)
	applyReg.End()
	s.reloadMu.RUnlock()
	if err != nil {
		var ee *delta.EditError
		if errors.As(err, &ee) {
			s.fail(w, http.StatusBadRequest, "%v", err)
		} else {
			s.fail(w, http.StatusInternalServerError, "mutation not applied: %v", err)
		}
		return
	}
	s.stats.edits.Add(uint64(len(req.Edits)))
	writeJSON(w, http.StatusOK, MutateResponse{
		Dataset:   req.Dataset,
		Shard:     req.Shard,
		Epoch:     snap.Epoch,
		Applied:   len(req.Edits),
		DocNodes:  snap.Doc.Len(),
		Persisted: shard.Log.Durable(),
	})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if !s.method(w, r, http.MethodPost) {
		return
	}
	if s.readOnly(w) {
		return
	}
	names, err := s.Reload()
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "reload failed (previous catalog still serving): %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": names})
}

// handleReadyz answers whether this instance should receive traffic —
// distinct from /healthz liveness: a draining server is perfectly alive,
// it just wants the load balancer to look elsewhere while in-flight
// requests finish.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.method(w, r, http.MethodGet) {
		return
	}
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.method(w, r, http.MethodGet) {
		return
	}
	body := map[string]any{
		"status":        "ok",
		"datasets":      len(s.Catalog().names),
		"uptimeSeconds": time.Since(s.stats.start).Seconds(),
	}
	// When an SLO is configured, report how the error budget is burning
	// over the sliding window. Burning faster than it accrues (rate > 1)
	// flips the status to "degraded" but keeps the 200: latency pressure
	// is an alert for operators, not a liveness failure — ejecting the
	// replica from rotation would convert slow answers into no answers.
	if s.opts.SLOTarget > 0 {
		win := s.stats.query.lat.Window()
		slo := obs.SLO{Target: s.opts.SLOTarget, Objective: s.opts.SLOObjective}
		bad, burn := slo.Burn(win)
		detail := map[string]any{
			"targetMs":       float64(s.opts.SLOTarget.Microseconds()) / 1e3,
			"objective":      s.opts.SLOObjective,
			"windowSeconds":  s.opts.SLOWindow.Seconds(),
			"windowRequests": win.Count,
			"badFraction":    bad,
			"burnRate":       burn,
			"p50Ms":          win.Quantile(0.50),
			"p95Ms":          win.Quantile(0.95),
			"p99Ms":          win.Quantile(0.99),
		}
		body["slo"] = detail
		if burn > 1 {
			body["status"] = "degraded"
		}
	}
	// A follower that has fallen too far behind the primary is alive but
	// not healthy: it answers queries from stale state and min_epoch
	// queries start timing out. Report degraded (503 keeps load balancers
	// honest) with the worst shard's lag detail.
	if s.follower != nil && s.opts.MaxLagEpochs > 0 {
		if dsName, shard, lag, ok := s.follower.MaxLag(); ok && lag.EpochsBehind > uint64(s.opts.MaxLagEpochs) {
			body["status"] = "degraded"
			detail := map[string]any{
				"dataset":      dsName,
				"shard":        shard,
				"epochsBehind": lag.EpochsBehind,
				"primaryEpoch": lag.PrimaryEpoch,
				"localEpoch":   lag.LocalEpoch,
				"maxLagEpochs": s.opts.MaxLagEpochs,
			}
			if lag.LastError != "" {
				detail["lastError"] = lag.LastError
			}
			body["lag"] = detail
			writeJSON(w, http.StatusServiceUnavailable, body)
			return
		}
	}
	writeJSON(w, http.StatusOK, body)
}
