package server

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"xmatch/internal/obs"
)

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
	select {
	case a.slots <- struct{}{}:
		return a.releaseFn, nil
	default:
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

func (a *admission) release() { <-a.slots }

// inFlight is the number of admitted requests currently holding a slot.
func (a *admission) inFlight() int { return len(a.slots) }

// queueDepth is the number of requests currently waiting for a slot.
func (a *admission) queueDepth() int64 { return a.queued.Load() }
