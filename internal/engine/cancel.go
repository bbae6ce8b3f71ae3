package engine

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrCanceled reports an evaluation unit that was abandoned because the
// view's context was canceled or its deadline passed. Batch responses
// carry it for requests never (fully) evaluated; single-query callers
// should consult their context's error instead, which distinguishes
// cancellation from deadline expiry.
var ErrCanceled = errors.New("engine: evaluation canceled")

// WithContext returns a view of the engine whose evaluations observe ctx:
// once ctx is canceled or times out, every evaluation loop on the view —
// including core's plan evaluation, which polls the view's stop flag
// between units — exits at its next checkpoint, pool slots the view reserved are returned, and any bounded
// slot wait (Options.SlotWait) is cut short. Evaluation results produced
// after cancellation are partial; callers must check ctx.Err() before
// trusting them.
//
// The view shares the parent's worker budget, admission gates, and
// prepared-query cache, like Sub. A context that can never be canceled
// returns the engine unchanged, so the uncancellable path stays
// zero-cost. The caller must eventually cancel ctx (request-scoped
// contexts with a deferred cancel do) to release the cancellation hook.
func (e *Engine) WithContext(ctx context.Context) *Engine {
	if ctx == nil || ctx.Done() == nil {
		return e
	}
	view := *e
	stop := new(atomic.Bool)
	context.AfterFunc(ctx, func() { stop.Store(true) })
	view.stop = stop
	view.done = ctx.Done()
	return &view
}

// canceled reports whether the view's context has been canceled. On an
// engine without a context view this is a nil check — the fast path every
// per-mapping loop pays.
func (e *Engine) canceled() bool { return e.stop != nil && e.stop.Load() }
