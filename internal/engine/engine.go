// Package engine provides a concurrent PTQ evaluation engine on top of
// internal/core. Every mode runs the query's compiled plan (core.Plan):
// Algorithm 4's for block-tree and top-k PTQ answering, and for basic PTQ
// answering Algorithm 3's, the plan over no c-blocks. Every evaluation
// takes a collection (Shards; a document is a collection of one), which
// core.Plan.Run scatters over the engine's pool, and a batched multi-query
// API evaluates independent queries side by side; shards and batch members
// are its only units of parallelism, and they share one bounded worker
// pool. A prepared-query LRU cache (keyed by pattern text and mapping-set
// identity) lets repeated queries skip the parse/resolve step of
// PrepareQuery and the plan compile.
//
// The engine is a pure orchestration layer: every algorithmic decision,
// the loop over a collection's members included, stays in internal/core,
// and for any worker and shard count the engine returns the answer of the
// paper's Algorithm 3 over the members' concatenation — same mapping
// order, same match order, same probabilities (the differential tests hold
// it to internal/oracle, which shares no plan, memo or index with it). That
// includes the matching backend: when a positional index (internal/index)
// is attached to a document, every evaluation over it goes through the
// index, which concurrent workers share (indexed_test.go runs this
// composition under -race).
//
// Live documents (internal/delta) compose with the engine by snapshot
// pinning: every call takes its member documents and uses them — and the
// index attached to each — for the whole call, so a caller serving a
// mutating dataset resolves each shard's delta.Handle.Snapshot() exactly
// once per request and passes the snapshots' documents down. Workers never
// re-resolve a document, so a mutation published mid-request cannot mix
// epochs inside one evaluation (delta_test.go races writers against pinned
// readers under -race).
package engine

import (
	"runtime"
	"sync"

	"xmatch/internal/core"
	"xmatch/internal/mapping"
	"xmatch/internal/obs"
)

// Options configure an Engine.
type Options struct {
	// Workers sizes the engine's pool: a call splits into at most Workers
	// parts, run by the calling goroutine and by up to Workers-1 pool
	// goroutines that every call on the engine shares. Workers <= 1 —
	// including the zero value and negative values — disables parallelism:
	// every evaluation runs inline on the calling goroutine.
	Workers int
	// CacheCapacity bounds the prepared-query cache (LRU eviction).
	// 0 means DefaultCacheCapacity; negative disables caching. Cached
	// queries keep their mapping set (and its schemas) reachable until
	// evicted, so a long-lived engine serving many short-lived sets
	// should use a small capacity or disable caching.
	CacheCapacity int
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
// one prepared-query cache and one worker pool).
type Engine struct {
	// workers caps the parts one call splits into: the engine's worker
	// count, or a view's n.
	workers int
	// gate is the engine's pool: Workers-1 slots (the calling goroutine is
	// the extra worker), shared by every view. A spawn takes a slot
	// without waiting; with none free, the caller does the part itself.
	// Nil on a sequential engine.
	gate  chan struct{}
	cache *queryCache

	// done is set by View: the view's context's Done channel, polled
	// by the evaluation loops. Nil on an engine without a context view.
	done <-chan struct{}
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	w := max(opts.Workers, 1)
	e := &Engine{workers: w, cache: newQueryCache(opts.CacheCapacity)}
	if w > 1 {
		e.gate = make(chan struct{}, w-1)
	}
	return e
}

// Workers returns the effective worker count (at least 1).
func (e *Engine) Workers() int { return e.workers }

// Sub returns a view of the engine that splits one call into at most n
// parts, every spawned part still taking a slot from the engine's pool —
// admission control for multi-tenant callers: a server hands each request
// a Sub so one fat batch cannot claim the whole pool. The view shares the
// parent's pool and prepared-query cache; results are identical to the
// parent's at any n. n >= the engine's worker count (or n <= 0) returns
// the engine unchanged; n == 1 returns a sequential view.
func (e *Engine) Sub(n int) *Engine {
	if n <= 0 || n >= e.workers {
		return e
	}
	sub := *e
	sub.workers = n
	return &sub
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

// Busy returns how many of the engine's pool slots are currently taken
// (0 for a sequential engine) — together with Workers, the pool gauge
// /metricsz exposes.
func (e *Engine) Busy() int { return len(e.gate) }

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

// Spread runs fn(0), ..., fn(n-1) in at most e.workers contiguous ranges,
// which makes the engine the core.Spreader a plan runs its members
// through. A range runs on a pool goroutine when the engine's gate has a
// free slot and inline on the calling goroutine otherwise, so the pool
// never exceeds its slots and nested calls (a batch whose members each
// scatter over shards) cannot deadlock: a caller that finds the pool taken
// simply does the work itself. fn polls the view's context itself.
func (e *Engine) Spread(n int, fn func(i int)) {
	parts := min(n, e.workers)
	run := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	}
	if parts <= 1 {
		run(0, n)
		return
	}
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		lo, hi := p*n/parts, (p+1)*n/parts
		select {
		case e.gate <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					<-e.gate
					wg.Done()
				}()
				run(lo, hi)
			}()
		default:
			run(lo, hi)
		}
	}
	wg.Wait()
}
