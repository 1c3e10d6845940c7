package opt

import (
	"context"
	"time"
)

// Progress is an optimizer heartbeat: the iteration that just finished,
// its loss, and a monotonic timestamp taken at emission. Engines emit
// one heartbeat per iteration through Beat; the tiled flow's stall
// watchdog uses the stamp stream to distinguish an optimizer that is
// merely slow (heartbeats keep arriving) from one that has stalled
// (no heartbeat within the configured window).
type Progress func(iter int, loss float64, at time.Time)

type progressKey struct{}

// WithProgress returns a context carrying cb as the heartbeat receiver.
// The tiled flow attaches this to each attempt's context (published to
// engines via litho.Simulator.Ctx) so iteration loops can report
// liveness without widening the optimizer signatures.
func WithProgress(ctx context.Context, cb Progress) context.Context {
	return context.WithValue(ctx, progressKey{}, cb)
}

// ProgressFrom extracts the heartbeat receiver carried by ctx, or nil
// when none is attached (single-window use, nil context).
func ProgressFrom(ctx context.Context) Progress {
	if ctx == nil {
		return nil
	}
	cb, _ := ctx.Value(progressKey{}).(Progress)
	return cb
}

// Beat emits one heartbeat on the Progress receiver carried by ctx,
// stamped with the current monotonic clock. It is a no-op without a
// receiver, so engines call it unconditionally once per iteration.
func Beat(ctx context.Context, iter int, loss float64) {
	if cb := ProgressFrom(ctx); cb != nil {
		cb(iter, loss, time.Now())
	}
}
