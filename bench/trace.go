package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call: spans inside the program are a later change (ROADMAP item 1).
// Spans of one request share Req; Parent is the ID of the span that
// caused this one (0 for a request's root).
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	// Start and End are nanoseconds since the trace began, as the clock
	// read; Speed is the machine-speed factor of the chunk the span ran in,
	// by which a duration is scaled to nominal speed.
	Start int64   `json:"start_ns"`
	End   int64   `json:"end_ns"`
	Speed float64 `json:"speed"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Shard observers may
// call it from the engine's workers, so it locks.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// chunkStart is the index of the first span of the chunk in progress;
	// setSpeed stamps the chunk's factor on its spans once the reference
	// slice after it has run.
	chunkStart int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, req, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, ID: len(t.spans) + 1, Parent: parent, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// ended records a span that has just finished and took d: the form the
// engine's shard observer reports in.
func (t *tracer) ended(name string, req, parent int, d time.Duration) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Req: req, ID: len(t.spans) + 1, Parent: parent, Start: now - d.Nanoseconds(), End: now})
	t.mu.Unlock()
}

// setSpeed stamps f on every span recorded since the last call.
func (t *tracer) setSpeed(f float64) {
	t.mu.Lock()
	for i := t.chunkStart; i < len(t.spans); i++ {
		t.spans[i].Speed = f
	}
	t.chunkStart = len(t.spans)
	t.mu.Unlock()
}

// layerTotals is what the spans of one name add up to, at nominal speed.
type layerTotals struct {
	count int
	total time.Duration // sum of durations
	self  time.Duration // sum of self times
}

// aggregate folds the spans by name. A span's self time is its duration
// minus the part of its interval its child spans cover; children may
// overlap (shards evaluated in parallel), so the cover is a union.
func aggregate(spans []span) map[string]*layerTotals {
	children := make(map[int][]int) // parent ID -> indexes of child spans
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], i)
		}
	}
	out := make(map[string]*layerTotals)
	for i := range spans {
		s := &spans[i]
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Name] = lt
		}
		lt.count++
		lt.total += scale(s.dur(), s.Speed)
		lt.self += scale(s.dur()-covered(spans, children[s.ID], s.Start, s.End), s.Speed)
	}
	return out
}

// covered is the length of the union of the given spans' intervals,
// clipped to [lo, hi].
func covered(spans []span, idx []int, lo, hi int64) time.Duration {
	if len(idx) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].Start, lo), min(spans[i].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var sum int64
	end := lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return time.Duration(sum)
}

// traceFileRequests bounds the spans written to trace.json: the first
// requests of the staged pass are enough to read a request's anatomy, and
// a top-k pass records millions of spans.
const traceFileRequests = 2000

// writeTrace writes to bench/out/trace.json the spans of the first
// traceFileRequests requests of the handler pass and of the staged pass,
// whose request IDs start after firstStaged.
func writeTrace(workload string, spans []span, firstStaged int) error {
	var keep []span
	for _, s := range spans {
		if s.Req <= traceFileRequests || (s.Req > firstStaged && s.Req <= firstStaged+traceFileRequests) {
			keep = append(keep, s)
		}
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, keep})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir(), "trace.json"), data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
