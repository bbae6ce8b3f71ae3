package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xmatch/internal/core"
	"xmatch/internal/delta"
	"xmatch/internal/engine"
	"xmatch/internal/obs"
)

// stage is a step of the request pipeline. Its name is both the span the
// stage records on the request's trace and, when the request's context
// ends in it, the TimeoutResponse.Stage of the 503.
type stage string

// The stage list, in the order a request passes it. A request passes its
// endpoint's stages only: queued when it found every admission slot taken,
// await_epoch with min_epoch, prepare through encode on /v1/query
// (/v1/batch prepares inside evaluate), apply on mutate, checkpoint on
// /v1/admin/checkpoint, stream on the replication reads. A stage lasts
// from its boundary to the next, so the steps between boundaries — the
// deadline, dataset resolution, the snapshot pin — belong to the stage in
// progress, and the spans tile the request.
const (
	stageDecode     stage = "decode"
	stageQueued     stage = "queued"
	stageAwaitEpoch stage = "await_epoch"
	stagePrepare    stage = "prepare"
	stageEvaluate   stage = "evaluate"
	stageAggregate  stage = "aggregate"
	stageEncode     stage = "encode"
	stageApply      stage = "apply"
	stageCheckpoint stage = "checkpoint"
	stageStream     stage = "stream"
	stageWrite      stage = "write"
)

// checked reports whether st is a timeout checkpoint: the stage ends by
// checking the request's context, and one that ended answers 503.
func (st stage) checked() bool {
	return st == stageQueued || st == stageAwaitEpoch || st == stageEvaluate
}

// route is what an endpoint asks of the shared stages.
type route uint8

const (
	readRoute  route = iota // resolve the dataset and shard (replication reads)
	evalRoute               // also admit, await min_epoch and pin (query, batch)
	writeRoute              // refused read-only; under the reload read lock (mutate, checkpoint)
)

// request is one request moving through the pipeline: the stage it is in
// and what the shared stages resolved for it. It is pooled, so a handler
// must not keep it past its return.
type request struct {
	s       *Server
	w       http.ResponseWriter
	r       *http.Request
	ctx     context.Context // the client's, or dl once open arms it
	timeout time.Duration   // the effective bound a 503 reports; > 0 while dl is armed
	route   route

	stage  stage
	detail string    // the stage's span detail
	began  time.Time // the stage's boundary

	dataset string // the name the request resolved, its trace's label
	ds      *Dataset
	shard   *Shard // the addressed shard (mutate, replication)
	eng     engine.Engine
	release func() // the admission slot's, while one is held
	locked  bool   // holds the reload read lock

	// What a request only builds to throw away; finish keeps it, zeroing the rest.
	tr      *obs.Trace
	dl      *deadline
	scatter engine.Shards     // its Observe bound once
	snaps   []*delta.Snapshot // the pins the scatter's documents come from
	answers core.AnswerScratch
	body    []byte // the response, rendered whole before it is written
}

var requests = sync.Pool{New: func() any {
	p := &request{tr: new(obs.Trace), dl: new(deadline)}
	// Each (embedding, shard) scatter unit is timed into the shard's
	// histogram and recorded as a shard_evaluate span.
	p.scatter.Observe = func(shard int, took time.Duration) {
		sh := p.ds.shards[shard]
		sh.lat.Observe(took)
		p.tr.Add("shard_evaluate", sh.spanDetail, time.Now().Add(-took), took)
	}
	return p
}}

// deadline is a request's bound as a context under the client's: a done
// channel closed by a timer armed per request or by the client's
// cancellation. A pooled request keeps it, timer and channel included; one
// that fired, or may yet, is replaced, so no late firing reaches a later request.
type deadline struct {
	context.Context // the client's
	at              time.Time
	timer           *time.Timer
	stop            func() bool // ends the forwarding of the client's cancellation
	once            sync.Once
	done            chan struct{}
	err             error // set before done closes
}

// arm bounds the request by at, or by the client's deadline if it is earlier.
func (d *deadline) arm(parent context.Context, at time.Time) {
	if pd, ok := parent.Deadline(); ok && pd.Before(at) {
		at = pd
	}
	d.Context, d.at = parent, at
	if d.timer == nil {
		d.done = make(chan struct{})
		d.timer = time.AfterFunc(time.Until(at), func() { d.end(context.DeadlineExceeded) })
	} else {
		d.timer.Reset(time.Until(at))
	}
	if parent.Done() != nil {
		d.stop = context.AfterFunc(parent, func() { d.end(parent.Err()) })
	}
}

func (d *deadline) end(err error) { d.once.Do(func() { d.err = err; close(d.done) }) }

// disarm ends the arming and reports whether d may be armed again: not if
// it fired, or may yet.
func (d *deadline) disarm() bool {
	idle := d.timer.Stop()
	if d.stop != nil {
		idle = d.stop() && idle
	}
	d.Context, d.stop = nil, nil
	return idle
}

func (d *deadline) Deadline() (time.Time, bool) { return d.at, true }
func (d *deadline) Done() <-chan struct{}       { return d.done }

func (d *deadline) Err() error {
	select {
	case <-d.done:
		return d.err
	default:
		return nil
	}
}

// target is what a decoded body addresses.
type target struct {
	dataset   string
	shard     int
	perShard  bool // shard is addressed (mutate, replication)
	minEpoch  uint64
	timeoutMs int64
}

// timed mounts a pipeline handler: method enforcement, the endpoint's
// request counter and latency histogram, the in-flight gauge, the request
// ID (X-Request-Id) and its trace, the panic boundary and the read-only
// refusal, then the handler from the decode stage on. The trace goes to
// the tail-sampled slow-query log; a retained one also emits a structured
// log line carrying the request ID, so logs and /v1/debug/traces
// correlate.
func (s *Server) timed(ep *endpoint, method string, rt route, handle func(*request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.method(w, r, method) {
			return
		}
		ep.requests.Add(1)
		s.stats.inFlight.Add(1)
		id := obs.RequestID()
		w.Header().Set("X-Request-Id", id)
		p := requests.Get().(*request)
		p.tr.Begin(id)
		p.s, p.w, p.r, p.ctx, p.route, p.stage, p.began = s, w, r, r.Context(), rt, stageDecode, p.tr.Start()
		defer p.finish(ep)
		defer s.recoverPanic(w, ep.name)
		if rt == writeRoute && s.readOnly(w) {
			return
		}
		handle(p)
	}
}

// finish ends the request: one clock read closes the stage in progress
// and is the request's latency; then what the request held is given back
// and the trace is filed — before the request is pooled, since the next
// request to get it begins the same trace again.
func (p *request) finish(ep *endpoint) {
	s, tr := p.s, p.tr
	end := time.Now()
	tr.Add(string(p.stage), p.detail, p.began, end.Sub(p.began))
	if p.release != nil {
		p.release()
	}
	if p.locked {
		s.reloadMu.RUnlock()
	}
	if p.timeout > 0 && !p.dl.disarm() {
		p.dl = new(deadline)
	}
	total := end.Sub(tr.Start())
	ep.lat.Observe(total)
	s.stats.inFlight.Add(-1)
	if s.traces.Finish(tr, total, p.dataset, ep.name) {
		s.logger.Info("slow request", "id", tr.ID(), "endpoint", ep.name, "dataset", p.dataset,
			"ms", float64(total.Microseconds())/1e3)
	}
	clear(p.snaps) // pins no document, engine or answer text past the request
	clear(p.scatter.Docs)
	p.answers.Clear()
	if cap(p.body) > maxPooledBody {
		p.body = nil
	}
	*p = request{tr: tr, dl: p.dl, scatter: p.scatter, snaps: p.snaps, answers: p.answers, body: p.body}
	requests.Put(p)
}

// next is a stage boundary: one clock read ends the span of the stage in
// progress and begins st's. Leaving a timeout checkpoint whose context
// ended answers the 503 instead, and only then does next report false.
func (p *request) next(st stage, detail string) bool {
	if p.stage.checked() && p.expired() {
		return false
	}
	now := time.Now()
	p.tr.Add(string(p.stage), p.detail, p.began, now.Sub(p.began))
	p.stage, p.detail, p.began = st, detail, now
	return true
}

// open runs the shared stages between a body and the handler's own work,
// then begins the handler's first stage. The decode stage ends in its
// verdicts: decodeErr from the decoder, invalid from the validation step
// (each body's validate method), 400 in its own words. Then come the
// timeout_ms deadline, dataset and shard resolution and, on an evaluating
// route, admission, the min_epoch wait and the snapshot pin. open reports
// false when it answered the request.
func (p *request) open(decodeErr, invalid error, t target, first stage, detail string) bool {
	s := p.s
	if decodeErr != nil {
		s.failBody(p.w, decodeErr)
		return false
	}
	if invalid != nil {
		s.fail(p.w, http.StatusBadRequest, "%v", invalid)
		return false
	}
	// One deadline, counted from the request's arrival: the server-wide
	// bound, which timeout_ms may tighten but never extend.
	p.timeout = max(s.opts.QueryTimeout, 0)
	if d := time.Duration(t.timeoutMs) * time.Millisecond; d > 0 && (p.timeout == 0 || d < p.timeout) {
		p.timeout = d
	}
	if p.timeout > 0 {
		p.dl.arm(p.ctx, p.tr.Start().Add(p.timeout))
		p.ctx = p.dl
	}
	if p.route == writeRoute {
		// Held from resolution to the end: a reload swapping the catalog in
		// between would let a mutation land on the superseded dataset (and
		// its edit log) after the reload's replay read the log —
		// acknowledged, persisted, yet absent from the serving catalog — or
		// a checkpoint rewrite files the reload is reading.
		s.reloadMu.RLock()
		p.locked = true
	}
	if !p.resolveShard(t) {
		return false
	}
	if p.route == evalRoute {
		if !p.admit() {
			return false
		}
		if t.minEpoch > 0 {
			if !p.next(stageAwaitEpoch, "min_epoch="+strconv.FormatUint(t.minEpoch, 10)) {
				return false
			}
			if !s.awaitEpoch(p.ctx, p.tr, p.ds, t.minEpoch) {
				if !p.expired() {
					s.fail(p.w, http.StatusPreconditionFailed, "dataset %q at epoch %d, below requested min_epoch %d",
						t.dataset, snapsEpoch(p.ds.Snapshots()), t.minEpoch)
				}
				return false
			}
		}
		// One pin per shard: everything the request evaluates sees these
		// (document, index) pairs even if a mutation lands mid-request. The
		// engine view scatters over them under ctx, with half the dataset's
		// pool per call.
		p.snaps, p.scatter.Docs = p.snaps[:0], p.scatter.Docs[:0]
		for _, sh := range p.ds.shards {
			sn := sh.Live.Snapshot()
			p.snaps = append(p.snaps, sn)
			p.scatter.Docs = append(p.scatter.Docs, sn.Doc)
		}
		p.eng = p.ds.Engine.View((p.ds.Engine.Workers()+1)/2, p.ctx)
	}
	return p.next(first, detail)
}

// failBody answers a body that did not decode: an oversized body is 413
// (the request was well-formed, just too big — retrying it unchanged
// cannot help), anything else is 400.
func (s *Server) failBody(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.fail(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
		return
	}
	s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
}

// resolveShard looks up the target's dataset — and bounds-checks its
// shard, when it addresses one — and labels the request with it, answering
// the request itself on failure.
func (p *request) resolveShard(t target) bool {
	ds := p.s.Catalog().Get(t.dataset)
	if ds == nil {
		p.s.fail(p.w, http.StatusNotFound, "unknown dataset %q", t.dataset)
		return false
	}
	p.dataset = t.dataset
	if t.perShard {
		if t.shard < 0 || t.shard >= ds.NumShards() {
			p.s.fail(p.w, http.StatusBadRequest, "dataset %q has %d shards, no shard %d", t.dataset, ds.NumShards(), t.shard)
			return false
		}
		p.shard = ds.Shards()[t.shard]
	}
	p.ds = ds
	return true
}

// admit passes the admission gate. A request that finds every slot taken
// enters the queued stage: it waits under its own deadline, timeout_ms
// included, or is shed with 429 when the queue is full.
func (p *request) admit() bool {
	a := p.s.adm
	if a == nil {
		return true
	}
	if a.tryAcquire() {
		p.release = a.releaseFn
		return true
	}
	if !p.next(stageQueued, "") {
		return false
	}
	release, err := a.acquire(p.ctx)
	switch {
	case err == nil:
		p.release = release
		return true
	case errors.Is(err, errQueueFull):
		p.s.stats.shed.Add(1)
		// Come back after the backlog drains, not instantly: one second is
		// coarse but honest for a queue sized to the server's drain rate.
		p.w.Header().Set("Retry-After", "1")
		p.s.fail(p.w, http.StatusTooManyRequests, "server overloaded: %d requests evaluating, %d queued",
			a.inFlight(), a.queueDepth())
	default:
		p.expired()
	}
	return false
}

// errQueueFull reports that the admission queue is at capacity: the
// request is shed immediately (429 + Retry-After) instead of waiting.
var errQueueFull = errors.New("admission queue full")

// admission is the server's overload gate for evaluation-heavy requests
// (/v1/query, /v1/batch): a fixed number of in-flight slots plus a
// bounded, deadline-aware wait queue. A request that finds no free slot
// waits — FIFO through the runtime's channel queue — until a slot frees,
// its deadline expires, or the client goes away; past the queue bound it
// is shed instantly, because a queue deeper than the server can drain
// within a deadline only converts overload into timeouts.
type admission struct {
	slots    chan struct{} // capacity = max in-flight
	queueMax int64
	queued   atomic.Int64
	waitLat  *obs.Histogram
	// releaseFn is the release method bound once, so admitting a request
	// does not allocate the func it hands back.
	releaseFn func()
}

func newAdmission(inflight, queue int) *admission {
	a := &admission{
		slots:    make(chan struct{}, inflight),
		queueMax: int64(queue),
		waitLat:  obs.NewHistogram(nil),
	}
	a.releaseFn = a.release
	return a
}

// acquire admits the request, returning the release the caller must run
// when done. It fails with errQueueFull when the wait queue is at
// capacity, or the context's error if the deadline expires (or the
// client disconnects) while queued.
func (a *admission) acquire(ctx context.Context) (release func(), err error) {
	if a.tryAcquire() {
		return a.releaseFn, nil
	}
	if a.queued.Add(1) > a.queueMax {
		a.queued.Add(-1)
		return nil, errQueueFull
	}
	defer a.queued.Add(-1)
	start := time.Now()
	select {
	case a.slots <- struct{}{}:
		a.waitLat.Observe(time.Since(start))
		return a.releaseFn, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// tryAcquire takes a free slot if there is one, without queueing; the
// holder runs releaseFn when done.
func (a *admission) tryAcquire() bool {
	select {
	case a.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

func (a *admission) release() { <-a.slots }

// inFlight is the number of admitted requests currently holding a slot.
func (a *admission) inFlight() int { return len(a.slots) }

// queueDepth is the number of requests currently waiting for a slot.
func (a *admission) queueDepth() int64 { return a.queued.Load() }

// guard wraps an untimed /v1 handler in method enforcement, the
// server-wide deadline and the panic boundary.
func (s *Server) guard(endpoint, method string, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.method(w, r, method) {
			return
		}
		if s.opts.QueryTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.opts.QueryTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		defer s.recoverPanic(w, endpoint)
		fn(w, r)
	}
}

// probe mounts a GET-only probe (health, readiness, metrics) outside any
// deadline, so an operator can always inspect a struggling server.
func (s *Server) probe(fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.method(w, r, http.MethodGet) {
			fn(w, r)
		}
	}
}

// recoverPanic converts a handler panic into a 500 carrying the request ID
// while the stack goes to the structured log — one broken request must not
// take the daemon down with it.
func (s *Server) recoverPanic(w http.ResponseWriter, endpoint string) {
	if p := recover(); p != nil {
		id := w.Header().Get("X-Request-Id")
		s.stats.panics.Add(1)
		s.logger.Error("handler panic", "endpoint", endpoint, "id", id, "panic", fmt.Sprint(p), "stack", string(debug.Stack()))
		s.fail(w, http.StatusInternalServerError, "internal error serving %s (request %s)", endpoint, id)
	}
}

// TimeoutResponse is the body of a 503 produced by an expired request
// deadline (or a client that went away mid-request).
type TimeoutResponse struct {
	Error string `json:"error"`
	// Stage names the timeout checkpoint the deadline fired in: "queued"
	// (waiting for an admission slot), "await_epoch" (waiting for
	// min_epoch), or "evaluate".
	Stage string `json:"stage"`
	// TimeoutMs is the effective bound the request ran under (the
	// tighter of the server-wide deadline and the request's timeout_ms);
	// 0 when only the client's own cancellation applied.
	TimeoutMs float64 `json:"timeoutMs,omitempty"`
	RequestID string  `json:"requestId,omitempty"`
}

// expired answers a request whose context ended before its work did — 503
// naming the stage in progress — and reports whether it did. A client
// disconnect takes the same path: nobody reads the body, but the counters
// and log line still record the abort.
func (p *request) expired() bool {
	err := p.ctx.Err()
	if err == nil {
		return false
	}
	p.s.stats.timeouts.Add(1)
	p.s.stats.errors.Add(1)
	msg := "request deadline exceeded"
	if errors.Is(err, context.Canceled) {
		msg = "request canceled by client"
	}
	writeJSON(p.w, http.StatusServiceUnavailable, TimeoutResponse{
		Error:     msg + " during " + string(p.stage),
		Stage:     string(p.stage),
		TimeoutMs: float64(p.timeout.Microseconds()) / 1e3, // 0 is omitted
		RequestID: p.tr.ID(),
	})
	return true
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
