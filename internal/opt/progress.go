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

// Snapshot is a resumable mid-run optimizer checkpoint: the flat
// parameter vector plus the Adam moment state after Iter iterations.
// The tiled flow journals snapshots of long CircleOpt tiles so a killed
// run restarts a half-finished tile from its last recorded circle
// parameters instead of from scratch; because the Adam moments ride
// along, the resumed iterations replay the uninterrupted trajectory
// exactly.
type Snapshot struct {
	// Attempt is the caller's tag, neither set nor read by engines: the
	// tiled flow stamps the degradation-ladder attempt a snapshot was
	// taken in, and resumes a tile only into that same attempt.
	Attempt int
	Iter    int     // iterations completed when the snapshot was taken
	Loss    float64 // loss at that iteration
	Params  []float64
	OptT    int // Adam step counter
	OptM    []float64
	OptV    []float64
}

// SnapshotSink receives periodic optimizer snapshots. The slices in
// each Snapshot are private copies; the sink may retain them.
type SnapshotSink func(Snapshot)

type snapshotKey struct{}
type resumeKey struct{}

type snapshotCfg struct {
	sink  SnapshotSink
	every int
}

// WithSnapshots returns a context asking snapshot-capable engines to
// call sink every `every` iterations. every <= 0 disables snapshots.
func WithSnapshots(ctx context.Context, sink SnapshotSink, every int) context.Context {
	return context.WithValue(ctx, snapshotKey{}, snapshotCfg{sink: sink, every: every})
}

// SnapshotsFrom extracts the snapshot request carried by ctx; the sink
// is nil (and every 0) when none is attached.
func SnapshotsFrom(ctx context.Context) (SnapshotSink, int) {
	if ctx == nil {
		return nil, 0
	}
	c, _ := ctx.Value(snapshotKey{}).(snapshotCfg)
	if c.every <= 0 {
		return nil, 0
	}
	return c.sink, c.every
}

// WithResume returns a context carrying a snapshot for a
// snapshot-capable engine to warm-start from instead of optimizing from
// scratch. Engines validate the snapshot (parameter count, iteration
// bounds) and silently fall back to a cold start on mismatch.
func WithResume(ctx context.Context, s Snapshot) context.Context {
	return context.WithValue(ctx, resumeKey{}, s)
}

// ResumeFrom extracts the warm-start snapshot carried by ctx.
func ResumeFrom(ctx context.Context) (Snapshot, bool) {
	if ctx == nil {
		return Snapshot{}, false
	}
	s, ok := ctx.Value(resumeKey{}).(Snapshot)
	return s, ok
}
