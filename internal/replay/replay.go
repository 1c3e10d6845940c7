// Package replay re-runs a quarantine bundle offline. A bundle is a
// complete description of one failed tile — target raster, optics,
// tiling knobs, engine metadata, injected-fault script, recorded
// attempt history — and it is also the encoding a live tile travels to
// a worker in. So Run serves the bundle as a task to the very executor
// a tile worker runs (procworker.Runner: engine.FromMeta rebuilds the
// optimizer chain, flow.ServeTask maps bundle → flow.Config, re-injects
// the recorded faults and walks the primary → retries → fallback
// ladder), then compares what happened against what the live run
// recorded. One mapping means a bundle field can never be honoured by
// workers and ignored by replay. That
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

	"cfaopc/internal/flow"
	"cfaopc/internal/geom"
	"cfaopc/internal/procpool"
	"cfaopc/internal/procworker"
	"cfaopc/internal/quarantine"
)

// Options tune a replay.
type Options struct {
	// Fixed, when non-empty, replaces the bundle's primary engine with
	// this named method (same knobs), answering "does the fix hold on
	// the captured failure?" instead of "does the failure reproduce?".
	Fixed string
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
	Path     string        // outcome path the replay ended on (flow.Path*)
	Walked   int           // attempts the replay made
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
	task := procpool.Task{Bundle: *b}
	if o.Fixed != "" {
		task.Bundle.Engines.Primary = o.Fixed
	}
	if o.NoFaults {
		task.Bundle.Faults = nil
	}
	reply := procworker.Runner()(ctx, &task, nil)
	if reply.Err != "" {
		return nil, fmt.Errorf("replay: %s", reply.Err)
	}
	outcomes := reply.Outcomes

	rep := &Report{Bundle: b, Path: reply.Path, Walked: len(outcomes), Shots: reply.Shots}
	n := max(len(b.Attempts), len(outcomes))
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
	rep.PathMatch = rep.Path == flow.PathEmpty
	rep.Reproduced = rep.PathMatch && errsMatch
	rep.Fixed = o.Fixed != "" && rep.Path == flow.PathPrimary
	return rep, nil
}
