// Package replay re-runs a quarantine bundle offline. A bundle is a
// complete description of one failed tile — target raster, optics,
// tiling knobs, engine metadata, injected-fault script, recorded
// attempt history — so Run can reconstruct the exact optimizer chain
// (engine.FromMeta), re-inject the same deterministic faults, walk the
// same primary → retries → fallback ladder (flow.RunWindow), and
// compare what happened against what the live run recorded. That
// comparison is the point: "reproduced" means the failure is
// deterministic and debuggable from the bundle alone; a divergence
// means the failure depended on something outside it (machine state,
// data races, wall-clock pressure), which is equally worth knowing.
//
// Options.Fixed swaps the primary engine for a candidate fix and
// reports whether the tile now succeeds — the verify loop for a repair
// developed against a bundle.
package replay

import (
	"context"
	"fmt"

	"cfaopc/internal/engine"
	"cfaopc/internal/flow"
	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/litho"
	"cfaopc/internal/quarantine"
)

// Options tune a replay.
type Options struct {
	// Fixed, when non-empty, replaces the bundle's primary engine with
	// this named method (same knobs), answering "does the fix hold on
	// the captured failure?" instead of "does the failure reproduce?".
	Fixed string
	// Workers sets per-kernel litho parallelism for the replay simulator.
	Workers int
	// NoFaults skips re-injecting the bundle's recorded fault script —
	// useful to check whether the tile fails on its own or only under
	// the harness.
	NoFaults bool
}

// AttemptDiff pairs one recorded attempt with its replayed counterpart.
// Replayed is zero-valued (Engine "") when the replay ended earlier
// than the recording, and vice versa.
type AttemptDiff struct {
	Index    int
	Recorded quarantine.Attempt
	Replayed quarantine.Attempt
	Match    bool // engine and error string agree
}

// Report is the outcome of one bundle replay.
type Report struct {
	Bundle   *quarantine.Bundle
	Stat     flow.TileStat
	Shots    []geom.Circle // window-local shots when the replay succeeded
	Attempts []AttemptDiff

	// Reproduced: the replay degraded to empty through the same
	// attempt-by-attempt failure sequence the live run recorded. Only
	// meaningful without Fixed/NoFaults.
	Reproduced bool
	// PathMatch: the replay ended on the recorded outcome path (always
	// "empty" for a quarantined tile).
	PathMatch bool
	// Fixed: Options.Fixed was set and the tile now succeeds.
	Fixed bool
}

// Run replays b and compares against its recorded history.
func Run(ctx context.Context, b *quarantine.Bundle, o Options) (*Report, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	meta := b.Engines
	if o.Fixed != "" {
		meta.Primary = o.Fixed
	}
	primary, fallback, err := engine.FromMeta(meta)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}

	sim, err := litho.New(b.Optics, b.Tile.WindowPx)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	sim.KOpt = b.KOpt
	sim.Workers = o.Workers

	cfg := flow.Config{
		GridN:        b.GridN,
		CorePx:       b.CorePx,
		HaloPx:       b.HaloPx,
		KOpt:         b.KOpt,
		Workers:      o.Workers,
		Optimize:     primary,
		Fallback:     fallback,
		TileRetries:  b.TileRetries,
		TileTimeout:  b.TileTimeout,
		StallTimeout: b.StallTimeout,
		RMinPx:       b.RMinPx,
		RMaxPx:       b.RMaxPx,
		Engines:      meta,
	}
	if len(b.Faults) > 0 && !o.NoFaults {
		script := make([]flow.Fault, len(b.Faults))
		for i, f := range b.Faults {
			script[i] = flow.Fault{
				Sleep: f.Sleep, BeatEvery: f.BeatEvery, Stall: f.Stall,
				Panic: f.Panic, NaN: f.NaN, BadRadius: f.BadRadius, Kill: f.Kill,
			}
		}
		cfg.Faults = flow.FaultPlan{b.Tile.Index: script}
	}

	target := &grid.Real{W: b.TargetW, H: b.TargetH, Data: append([]float64(nil), b.Target...)}
	shots, stat, outcomes := flow.RunWindow(ctx, sim, cfg, b.Tile.Index, b.Tile.CX, b.Tile.CY, target, flow.WindowHooks{})

	rep := &Report{Bundle: b, Stat: stat, Shots: shots}
	n := len(b.Attempts)
	if len(outcomes) > n {
		n = len(outcomes)
	}
	errsMatch := len(outcomes) == len(b.Attempts)
	for i := 0; i < n; i++ {
		d := AttemptDiff{Index: i}
		if i < len(b.Attempts) {
			d.Recorded = b.Attempts[i]
		}
		if i < len(outcomes) {
			oc := outcomes[i]
			d.Replayed = quarantine.Attempt{
				Index: oc.Attempt, Engine: oc.Engine, Err: oc.Err,
				Iters: oc.Iters, LastLoss: oc.LastLoss, Stalled: oc.Stalled,
			}
		}
		d.Match = i < len(b.Attempts) && i < len(outcomes) &&
			d.Recorded.Engine == d.Replayed.Engine && d.Recorded.Err == d.Replayed.Err
		if !d.Match {
			errsMatch = false
		}
		rep.Attempts = append(rep.Attempts, d)
	}
	rep.PathMatch = stat.Path == flow.PathEmpty
	rep.Reproduced = rep.PathMatch && errsMatch
	rep.Fixed = o.Fixed != "" && (stat.Path == flow.PathPrimary)
	return rep, nil
}
