package flow

import (
	"context"
	"fmt"

	"cfaopc/internal/grid"
	"cfaopc/internal/litho"
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
// lives above this package) and owns the simulator, which it should
// cache across tasks since every window in a run shares one imaging
// condition.
func ServeTask(ctx context.Context, sim *litho.Simulator, t *procpool.Task,
	primary, fallback Optimizer, sink procpool.Sink) procpool.Reply {
	b := &t.Bundle
	index := b.Tile.Index
	reply := procpool.Reply{Index: index}
	if err := b.ValidateTask(); err != nil {
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

// simKey identifies the simulator a task needs; tasks from one run all
// share it, so a worker caches a single simulator across tasks.
type simKey struct {
	optics   string
	windowPx int
	kOpt     int
}

// SimCache builds and reuses the window simulator across tasks served
// by one worker process. Kernel setup is the expensive part of a
// respawn; caching it means a healthy worker pays it once.
type SimCache struct {
	key simKey
	sim *litho.Simulator
}

// For returns a simulator matching the task's imaging condition,
// building one only when the condition changed (in practice: once).
func (c *SimCache) For(t *procpool.Task) (*litho.Simulator, error) {
	b := &t.Bundle
	key := simKey{
		optics:   fmt.Sprintf("%+v", b.Optics),
		windowPx: b.Tile.WindowPx,
		kOpt:     b.KOpt,
	}
	if c.sim != nil && c.key == key {
		return c.sim, nil
	}
	sim, err := litho.New(b.Optics, b.Tile.WindowPx)
	if err != nil {
		return nil, err
	}
	sim.KOpt = b.KOpt
	c.sim, c.key = sim, key
	return sim, nil
}
