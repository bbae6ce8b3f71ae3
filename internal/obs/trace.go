package obs

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one completed stage of a request: a name, optional detail
// (shard number, pattern, record count), and a start offset + duration
// relative to the trace's start, in microseconds. Offsets rather than
// absolute times keep the wire form small and make concurrent spans
// (parallel shard evaluations) easy to read side by side.
type Span struct {
	Name    string `json:"name"`
	Detail  string `json:"detail,omitempty"`
	StartUs int64  `json:"startUs"`
	DurUs   int64  `json:"durUs"`
}

// maxSpans bounds how many spans one trace records; a scatter-gather
// over hundreds of shards truncates rather than growing without bound.
const maxSpans = 256

// inlineSpans is how many spans a trace holds before its span list moves
// to the heap: a query over up to four shards (decode, prepare, one
// shard_evaluate each, evaluate, aggregate, encode, write) or a mutation
// (decode, resolve, commit, index, log, apply, write) fits, so the usual
// request's trace, begun again in storage its holder reuses, allocates
// nothing.
const inlineSpans = 10

// Trace is a request-scoped span recorder. All methods are safe on a nil
// receiver (no-ops), so instrumented code never branches on "is tracing
// enabled" — it just records into whatever trace it was handed. Add is
// safe for concurrent use (parallel shard workers record into the same
// trace).
type Trace struct {
	id    string
	start time.Time

	mu      sync.Mutex
	spans   []Span // backed by inline until it outgrows it
	dropped int
	inline  [inlineSpans]Span
}

// Begin empties the trace and starts it now, identified by id (usually a
// RequestID). A zero Trace or a finished one may begin, but not one that
// anything still reads.
func (t *Trace) Begin(id string) {
	t.id, t.start, t.dropped, t.spans = id, time.Now(), 0, t.inline[:0]
}

// ID returns the trace's request ID ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start returns the trace's start time (zero on nil).
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Add records a completed span that began at begin and took d.
func (t *Trace) Add(name, detail string, begin time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		t.mu.Unlock()
		return
	}
	t.spans = append(t.spans, Span{
		Name:    name,
		Detail:  detail,
		StartUs: begin.Sub(t.start).Microseconds(),
		DurUs:   d.Microseconds(),
	})
	t.mu.Unlock()
}

// Region is a span in progress; End completes it. It is a plain value, so
// opening a span allocates nothing.
type Region struct {
	t            *Trace
	name, detail string
	begin        time.Time
}

// Region starts a span now; use as
//
//	reg := tr.Region("prepare", pattern)
//	... work ...
//	reg.End()
func (t *Trace) Region(name, detail string) Region {
	if t == nil {
		return Region{}
	}
	return Region{t: t, name: name, detail: detail, begin: time.Now()}
}

// End records the span, from Region until now.
func (r Region) End() {
	if r.t != nil {
		r.t.Add(r.name, r.detail, r.begin, time.Since(r.begin))
	}
}

// TraceData is the JSON form of a completed trace, served by
// /v1/debug/traces and embedded in EXPLAIN output.
type TraceData struct {
	ID           string `json:"id"`
	Start        string `json:"start"`
	DurUs        int64  `json:"durUs"`
	Spans        []Span `json:"spans"`
	DroppedSpans int    `json:"droppedSpans,omitempty"`
	Dataset      string `json:"dataset,omitempty"`
	Endpoint     string `json:"endpoint,omitempty"`
}

// Data snapshots the trace as TraceData with the given total duration.
func (t *Trace) Data(total time.Duration) TraceData {
	if t == nil {
		return TraceData{}
	}
	t.mu.Lock()
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	dropped := t.dropped
	t.mu.Unlock()
	return TraceData{
		ID:           t.id,
		Start:        t.start.UTC().Format(time.RFC3339Nano),
		DurUs:        total.Microseconds(),
		Spans:        spans,
		DroppedSpans: dropped,
	}
}

// TraceLog is a bounded ring of completed slow-request traces,
// tail-sampled: Finish keeps a trace only when the request's total
// latency met the threshold, so the buffer holds the recent worst
// offenders rather than a uniform sample.
type TraceLog struct {
	threshold time.Duration // < 0 disables retention entirely
	mu        sync.Mutex
	ring      []TraceData
	next      int
	finished  atomic.Uint64
	sampled   atomic.Uint64
}

// NewTraceLog builds a trace log retaining up to size traces at or above
// threshold. size <= 0 defaults to 64. A negative threshold disables
// retention (Finish still counts); zero retains every finished trace.
func NewTraceLog(size int, threshold time.Duration) *TraceLog {
	if size <= 0 {
		size = 64
	}
	return &TraceLog{threshold: threshold, ring: make([]TraceData, 0, size)}
}

// Threshold returns the sampling threshold.
func (l *TraceLog) Threshold() time.Duration { return l.threshold }

// Finish records a completed request: the trace is retained iff total
// reached the threshold. Returns whether it was retained.
func (l *TraceLog) Finish(tr *Trace, total time.Duration, dataset, endpoint string) bool {
	if l == nil || tr == nil {
		return false
	}
	l.finished.Add(1)
	if l.threshold < 0 || total < l.threshold {
		return false
	}
	d := tr.Data(total)
	d.Dataset = dataset
	d.Endpoint = endpoint
	l.sampled.Add(1)
	l.mu.Lock()
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, d)
	} else {
		l.ring[l.next] = d
		l.next = (l.next + 1) % len(l.ring)
	}
	l.mu.Unlock()
	return true
}

// Snapshot returns the retained traces, newest first.
func (l *TraceLog) Snapshot() []TraceData {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]TraceData, 0, len(l.ring))
	// Before the ring wraps the newest entry is the last appended; after,
	// it is the one just behind the overwrite cursor.
	newest := len(l.ring) - 1
	if len(l.ring) == cap(l.ring) && len(l.ring) > 0 {
		newest = (l.next - 1 + len(l.ring)) % len(l.ring)
	}
	for i := 0; i < len(l.ring); i++ {
		out = append(out, l.ring[(newest-i+len(l.ring))%len(l.ring)])
	}
	return out
}

// Counts returns how many traces finished through this log and how many
// met the sampling threshold.
func (l *TraceLog) Counts() (finished, sampled uint64) {
	return l.finished.Load(), l.sampled.Load()
}

var reqCounter atomic.Uint64

// RequestID returns a process-unique request identifier, cheap enough to
// mint per request: a monotonic counter qualified by process start time
// so IDs from different runs rarely collide in shared logs.
func RequestID() string {
	var buf [32]byte // "r" + 8 hex digits + "-" + 20 decimal digits at most
	b := strconv.AppendInt(append(buf[:0], 'r'), processEpoch, 16)
	b = strconv.AppendUint(append(b, '-'), reqCounter.Add(1), 10)
	return string(b)
}

var processEpoch = time.Now().UnixNano() & 0xffffffff
