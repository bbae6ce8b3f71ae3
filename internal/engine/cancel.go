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

// WithContext returns a view of the engine whose evaluations observe ctx:
// once ctx is canceled or times out, every evaluation loop on the view —
// including core's plan evaluation, which polls the view's done channel
// between units — exits at its next checkpoint and pool slots the view
// took are returned. Evaluation results produced after cancellation are
// partial; callers must check ctx.Err() before trusting them.
//
// The view shares the parent's pool and prepared-query cache, like Sub. It registers nothing on ctx — a
// checkpoint is a non-blocking receive on ctx.Done() — so there is nothing
// to release when the request ends. A context that can never be canceled
// returns the engine unchanged, so the uncancellable path stays zero-cost.
func (e *Engine) WithContext(ctx context.Context) *Engine {
	if ctx == nil || ctx.Done() == nil {
		return e
	}
	view := *e
	view.done = ctx.Done()
	return &view
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
