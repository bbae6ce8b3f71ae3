// Package engine provides a concurrent PTQ evaluation engine on top of
// internal/core: a bounded worker pool parallelizes per-mapping work in basic
// PTQ answering (Algorithm 3) and the matcher calls of the compiled plan in
// block-tree PTQ and top-k PTQ answering (Algorithm 4, core.Plan), and
// scatters both over the member documents of a collection; a batched
// multi-query API evaluates independent queries concurrently; and a
// prepared-query LRU cache (keyed by pattern text and mapping-set identity)
// lets repeated queries skip the parse/resolve step of PrepareQuery and
// the plan compile.
//
// The engine is a pure orchestration layer: every algorithmic decision stays
// in internal/core, and for any worker count the engine returns results
// byte-identical to the sequential core evaluators — same mapping order,
// same match order, same probabilities (see the differential tests). That
// includes the matching backend: when a positional index (internal/index)
// is attached to the document, every worker evaluates through it — the
// index is immutable, so the workers share it with zero synchronization
// (indexed_test.go runs this composition under -race).
//
// Live documents (internal/delta) compose with the engine by snapshot
// pinning: every Evaluate*/EvaluateBatch call takes one document and uses
// it — and the index attached to it — for the whole call, so a caller
// serving a mutating dataset resolves delta.Handle.Snapshot() exactly once
// per request and passes snapshot.Doc down. Workers never re-resolve the
// document, so a mutation published mid-request cannot mix epochs inside
// one evaluation (delta_test.go races writers against pinned readers under
// -race).
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xmatch/internal/core"
	"xmatch/internal/mapping"
	"xmatch/internal/obs"
	"xmatch/internal/xmltree"
)

// Options configure an Engine.
type Options struct {
	// Workers is the maximum number of goroutines evaluating concurrently,
	// shared across every Evaluate*/EvaluateBatch call on the engine
	// (nested parallelism never exceeds it). Workers <= 1 — including the
	// zero value and negative values — disables parallelism: every
	// evaluation runs inline on the calling goroutine.
	Workers int
	// CacheCapacity bounds the prepared-query cache (LRU eviction).
	// 0 means DefaultCacheCapacity; negative disables caching. Cached
	// queries keep their mapping set (and its schemas) reachable until
	// evicted, so a long-lived engine serving many short-lived sets
	// should use a small capacity or disable caching.
	CacheCapacity int
	// SlotWait bounds how long a spawn may wait for a free pool slot
	// before falling back to inline execution on the calling goroutine.
	// 0 (the default) keeps the instant fallback — a spawn that finds the
	// pool exhausted immediately does the work itself. A positive wait
	// smooths admission under load bursts without risking deadlock: the
	// inline fallback still guarantees progress, waits are cut short when
	// a WithContext view's context is canceled, and the wait time and
	// waiter count are exported by CollectMetrics.
	SlotWait time.Duration
}

// DefaultCacheCapacity is the prepared-query cache capacity when Options
// leaves it zero.
const DefaultCacheCapacity = 256

// DefaultOptions returns an engine configuration using every available CPU
// and the default cache capacity.
func DefaultOptions() Options {
	return Options{Workers: runtime.GOMAXPROCS(0), CacheCapacity: DefaultCacheCapacity}
}

// Engine evaluates probabilistic twig queries concurrently. It is safe for
// concurrent use: any number of goroutines may share one engine (and hence
// one prepared-query cache and one worker budget).
type Engine struct {
	workers int
	// gates are the pool admission gates a spawn must pass, innermost
	// budget first: gates[0] has workers-1 slots (the calling goroutine is
	// the extra worker) and, for a Sub view, the remaining gates are the
	// parents' — a goroutine counts against every enclosing budget.
	gates []chan struct{}
	cache *queryCache

	// slotWait is Options.SlotWait; waiters counts goroutines currently
	// blocked in acquireWait and waitLat records how long successful
	// waited acquisitions took. Both are owned by the root engine and
	// shared (by pointer) with every Sub/WithContext view.
	slotWait time.Duration
	waiters  *atomic.Int64
	waitLat  *obs.Histogram

	// done is set by WithContext: the view's context's Done channel, polled
	// by the evaluation loops and selected on by bounded slot waits. Nil on
	// an engine without a context view.
	done <-chan struct{}
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	w := opts.Workers
	if w < 1 {
		w = 1
	}
	e := &Engine{
		workers:  w,
		cache:    newQueryCache(opts.CacheCapacity),
		slotWait: opts.SlotWait,
		waiters:  new(atomic.Int64),
		waitLat:  obs.NewHistogram(nil),
	}
	if w > 1 {
		e.gates = []chan struct{}{make(chan struct{}, w-1)}
	}
	return e
}

// Workers returns the effective worker count (at least 1).
func (e *Engine) Workers() int { return e.workers }

// Sub returns a view of the engine whose parallel evaluation holds at most
// n pool slots concurrently while still drawing them from the parent's
// budget — admission control for multi-tenant callers: a server can hand
// each request a Sub so one fat batch cannot starve the shared pool. The
// view shares the parent's prepared-query cache; results are identical to
// the parent's at any n (a starved view just evaluates inline). n >= the
// engine's worker count (or n <= 0) returns the engine unchanged; n == 1
// returns a sequential view.
func (e *Engine) Sub(n int) *Engine {
	if n <= 0 || n >= e.workers {
		return e
	}
	sub := *e
	sub.workers = n
	sub.gates = nil
	if n > 1 {
		sub.gates = append([]chan struct{}{make(chan struct{}, n-1)}, e.gates...)
	}
	return &sub
}

// acquire reserves one slot in every gate, releasing any partial
// reservation on failure. Without a slot-wait budget it never blocks; with
// one it waits up to the budget — cut short when the view's context ends —
// before giving up, so admission can slow a spawn but never wedge it (the
// caller falls back to running the work inline either way).
func (e *Engine) acquire() bool {
	if e.acquireFast() {
		return true
	}
	if e.slotWait <= 0 || e.canceled() {
		return false
	}
	return e.acquireWait()
}

// acquireFast is the non-blocking admission pass.
func (e *Engine) acquireFast() bool {
	for i, g := range e.gates {
		select {
		case g <- struct{}{}:
		default:
			for j := 0; j < i; j++ {
				<-e.gates[j]
			}
			return false
		}
	}
	return true
}

// acquireWait is the bounded blocking admission pass: one timer spans all
// gates, so the total wait never exceeds slotWait even on a Sub view's
// chained gates.
func (e *Engine) acquireWait() bool {
	e.waiters.Add(1)
	defer e.waiters.Add(-1)
	start := time.Now()
	timer := time.NewTimer(e.slotWait)
	defer timer.Stop()
	for i, g := range e.gates {
		select {
		case g <- struct{}{}:
		case <-timer.C:
			for j := 0; j < i; j++ {
				<-e.gates[j]
			}
			return false
		case <-e.done:
			for j := 0; j < i; j++ {
				<-e.gates[j]
			}
			return false
		}
	}
	e.waitLat.Observe(time.Since(start))
	return true
}

// release returns the slots taken by acquire.
func (e *Engine) release() {
	for _, g := range e.gates {
		<-g
	}
}

// Prepare returns a prepared query for the pattern against the mapping set,
// consulting the cache first. Cache entries are keyed by the pattern text
// together with the identity of the mapping set, so the same pattern prepared
// against two different sets occupies two entries. Failed preparations are
// not cached.
func (e *Engine) Prepare(pattern string, set *mapping.Set) (*core.Query, error) {
	q, _, err := e.PrepareCached(pattern, set)
	return q, err
}

// PrepareCached is Prepare reporting whether the query was answered from
// the prepared-query cache — the distinction EXPLAIN and the prepare
// span surface.
func (e *Engine) PrepareCached(pattern string, set *mapping.Set) (*core.Query, bool, error) {
	if q, ok := e.cache.get(pattern, set); ok {
		return q, true, nil
	}
	q, err := core.PrepareQuery(pattern, set)
	if err != nil {
		return nil, false, err
	}
	return e.cache.put(pattern, set, q), false, nil
}

// CacheStats returns a snapshot of the prepared-query cache counters.
func (e *Engine) CacheStats() CacheStats { return e.cache.stats() }

// Busy returns how many pool slots are currently reserved on the
// engine's own admission gate (0 for a sequential engine) — together
// with Workers, the admission-queue depth gauge /metricsz exposes.
func (e *Engine) Busy() int {
	if len(e.gates) == 0 {
		return 0
	}
	return len(e.gates[0])
}

// CollectMetrics emits the engine's pool and prepared-query-cache
// metrics onto x under the given labels (typically the owning dataset's
// name) — the engine's contribution to /metricsz.
func (e *Engine) CollectMetrics(x *obs.Exporter, labels ...obs.Label) {
	cs := e.CacheStats()
	x.Gauge("xmatch_engine_workers", "Configured evaluation worker budget.", float64(e.workers), labels...)
	x.Gauge("xmatch_engine_busy_workers", "Pool slots currently reserved.", float64(e.Busy()), labels...)
	x.Counter("xmatch_engine_prepare_cache_hits_total", "Prepared-query cache hits.", float64(cs.Hits), labels...)
	x.Counter("xmatch_engine_prepare_cache_misses_total", "Prepared-query cache misses.", float64(cs.Misses), labels...)
	x.Counter("xmatch_engine_prepare_cache_evictions_total", "Prepared-query cache evictions.", float64(cs.Evictions), labels...)
	x.Gauge("xmatch_engine_prepare_cache_entries", "Prepared queries currently cached.", float64(cs.Entries), labels...)
	x.Gauge("xmatch_engine_slot_waiters", "Goroutines currently waiting for a pool slot.", float64(e.waiters.Load()), labels...)
	x.Histogram("xmatch_engine_slot_wait_seconds", "Wait time of pool-slot acquisitions that blocked and succeeded.", e.waitLat.Snapshot(), labels...)
}

// EvaluateBasic answers the PTQ with a parallel Algorithm 3 over one
// document — a collection of one; see EvaluateBasicAcross. Results are
// identical to core.EvaluateBasic.
func (e *Engine) EvaluateBasic(q *core.Query, set *mapping.Set, doc *xmltree.Document) []core.Result {
	return e.EvaluateBasicAcross(q, set, Shards{Docs: []*xmltree.Document{doc}})
}

// Evaluate answers the PTQ with Algorithm 4 over one document — a
// collection of one; see EvaluateAcross. Results are identical to
// core.Evaluate.
func (e *Engine) Evaluate(q *core.Query, set *mapping.Set, doc *xmltree.Document, bt *core.BlockTree) []core.Result {
	return e.runPlan(q, set, Shards{Docs: []*xmltree.Document{doc}}, bt, 0)
}

// EvaluateTopK answers the top-k PTQ over one document; see
// EvaluateTopKAcross. Results are identical to core.EvaluateTopK.
func (e *Engine) EvaluateTopK(q *core.Query, set *mapping.Set, doc *xmltree.Document, bt *core.BlockTree, k int) []core.Result {
	if k <= 0 {
		return nil
	}
	return e.runPlan(q, set, Shards{Docs: []*xmltree.Document{doc}}, bt, k)
}

// Request is one query of a batch.
type Request struct {
	// Pattern is the twig pattern text on the target schema.
	Pattern string
	// K truncates to the top-k PTQ when positive; 0 evaluates all
	// mappings.
	K int
}

// Response is the answer to one batch request, in request order.
type Response struct {
	Request
	// Query is the prepared query the results were evaluated with (nil
	// when Err is set). Consumers that aggregate answers must use this
	// query's pattern nodes: match bindings compare nodes by pointer, so
	// re-preparing the pattern — which can return a different *core.Query
	// when the cache is small, disabled, or concurrently evicted — would
	// silently match nothing.
	Query   *core.Query
	Results []core.Result
	Err     error
}

// EvaluateBatch answers many queries over one document — a collection of
// one; see EvaluateBatchAcross.
func (e *Engine) EvaluateBatch(set *mapping.Set, doc *xmltree.Document, bt *core.BlockTree, reqs []Request) []Response {
	return e.EvaluateBatchAcross(set, Shards{Docs: []*xmltree.Document{doc}}, bt, reqs)
}

// parallelRanges splits [0, n) into at most parts contiguous ranges and runs
// fn on each. Ranges beyond the first run on pool goroutines when a worker
// slot is free and inline on the calling goroutine otherwise, so concurrency
// never exceeds the engine's worker budget and nested calls (a batch whose
// requests each parallelize their evaluation) cannot deadlock: a caller that
// finds the pool exhausted simply does the work itself. fn receives the part
// index alongside its range; part indices are dense in [0, parts').
func (e *Engine) parallelRanges(n, parts int, fn func(part, lo, hi int)) {
	if parts > n {
		parts = n
	}
	if e.workers <= 1 || parts <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		if e.canceled() {
			break
		}
		p, lo, hi := p, p*n/parts, (p+1)*n/parts
		if lo == hi {
			continue
		}
		if e.acquire() {
			wg.Add(1)
			go func() {
				defer func() {
					e.release()
					wg.Done()
				}()
				fn(p, lo, hi)
			}()
		} else {
			fn(p, lo, hi)
		}
	}
	wg.Wait()
}

// each runs fn(0), ..., fn(n-1), spread over the engine's workers: the
// scheduler core.EmbeddingPlan.Run takes for its matcher calls.
func (e *Engine) each(n int, fn func(i int)) {
	e.parallelRanges(n, e.workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}
