package engine

import (
	"context"
	"errors"
)

// ErrCanceled reports an evaluation unit that was abandoned because the
// view's context was canceled or its deadline passed. Batch responses
// carry it for requests whose evaluation the cancellation reached before
// it returned — never started, or stopped partway; single-query callers
// should consult their context's error instead, which distinguishes
// cancellation from deadline expiry.
var ErrCanceled = errors.New("engine: evaluation canceled")

// View returns a view of the engine that splits one call into at most n
// parts, as Sub does, and whose evaluation loops — core's plan included —
// poll ctx's done channel between units: once ctx ends they exit at the
// next checkpoint and return the pool slots they took, leaving partial
// results the caller must discard after checking ctx.Err(). The view
// registers nothing on ctx, and it is a value, so a caller keeping it in
// storage of its own allocates nothing for it. n <= 0, and a ctx that can
// never end, leave the engine's split and its done channel as they are.
func (e *Engine) View(n int, ctx context.Context) Engine {
	v := *e.Sub(n)
	if ctx != nil && ctx.Done() != nil {
		v.done = ctx.Done()
	}
	return v
}

// canceled reports whether the view's context has been canceled. On an
// engine without a context view the channel is nil and the receive never
// ready — the fast path every evaluation loop pays.
func (e *Engine) canceled() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}
