package flow

import (
	"context"
	"fmt"

	"cfaopc/internal/grid"
	"cfaopc/internal/litho"
	"cfaopc/internal/optics"
	"cfaopc/internal/procpool"
)

// taskConfig reconstructs the window-level flow Config a task's bundle
// encodes: the same knobs a live run would have applied to this tile,
// with the caller-resolved optimizer chain plugged in.
func taskConfig(t *procpool.Task, primary, fallback Optimizer) Config {
	b := &t.Bundle
	return Config{
		GridN:        b.GridN,
		CorePx:       b.CorePx,
		HaloPx:       b.HaloPx,
		KOpt:         b.KOpt,
		Optimize:     primary,
		Fallback:     fallback,
		TileRetries:  b.TileRetries,
		TileTimeout:  b.TileTimeout,
		StallTimeout: b.StallTimeout,
		RMinPx:       b.RMinPx,
		RMaxPx:       b.RMaxPx,
		Engines:      b.Engines,
	}
}

// ServeTask walks one window's exact degradation ladder (primary →
// retries → fallback → empty) from nothing but its task: the window
// Config comes from the task's bundle (taskConfig), heartbeats stream
// to sink, and the window-local result — no core-ownership filter, no
// checkpoint or quarantine side effects; those are the supervisor's — is
// packaged as the reply frame. It is what a tile worker runs per task
// and what offline bundle replay (procworker.Run, cmd/tileworker
// bundle.qrb) runs per bundle. The caller resolves the optimizer
// chain from Bundle.Engines (the flow cannot — engine construction
// lives above this package). The window simulator is the task's own,
// bound like a lane's (windowSim): a ladder that simulates fetches the
// kernels from the process-wide optics cache, so a session pays their
// decomposition once, and a ladder that never simulates not at all.
func ServeTask(ctx context.Context, t *procpool.Task,
	primary, fallback Optimizer, sink procpool.Sink) procpool.Reply {
	b := &t.Bundle
	index := b.Tile.Index
	reply := procpool.Reply{Index: index}
	if err := b.ValidateTask(); err != nil {
		reply.Err = err.Error()
		return reply
	}
	sim, err := windowSim(b.Optics, b.Tile.WindowPx, b.KOpt)
	if err != nil {
		reply.Err = err.Error()
		return reply
	}
	// A window needs no layout, span index or journal: just the resolved
	// config and where its liveness travels.
	env := &runEnv{cfg: taskConfig(t, primary, fallback), dispatch: t.Dispatch, onBeat: sink}
	target := &grid.Real{W: b.TargetW, H: b.TargetH, Data: b.Target}
	j := tileJob{index: index, cx: b.Tile.CX, cy: b.Tile.CY}
	reply.Shots, reply.Path, reply.Outcomes = env.attemptSequence(ctx, sim, j, target)
	if reply.Path == "" {
		// Only a canceled context abandons a ladder: a replay
		// interrupted from the keyboard, never a worker mid-task.
		return procpool.Reply{Index: index, Err: "task canceled mid-ladder"}
	}
	return reply
}

// windowSim binds the simulator of every window a lane, the breaker
// fallback or ServeTask runs: litho.Bind, with KOpt, and no kernels.
func windowSim(o optics.Config, window, kOpt int) (*litho.Simulator, error) {
	sim, err := litho.Bind(o, window)
	if err != nil {
		return nil, fmt.Errorf("flow: %dpx window simulator: %w", window, err)
	}
	sim.KOpt = kOpt
	return sim, nil
}
