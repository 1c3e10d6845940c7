package flow

import "context"

// TileInfo identifies the window an optimizer invocation is serving. The
// flow publishes it on the simulator's context (sim.Ctx) before every
// attempt, which is what lets an Optimizer wrapper — a test's fault
// injector, or telemetry — key behaviour on (tile, attempt) without
// widening the Optimizer signature.
type TileInfo struct {
	Index   int // row-major window index
	Attempt int // 0-based attempt counter; the fallback attempt is TileRetries+1
	CX, CY  int // core origin in full-grid pixels
	// Dispatch counts how many times the tile has been handed to a
	// worker process (always 0 in-process), so a wrapper that kills its
	// worker can stop after a scripted number of redispatches.
	Dispatch int
}

type tileInfoKey struct{}

// TileInfoFrom extracts the tile identity the flow attached to ctx.
// Outside a flow attempt (single-window use, nil context) ok is false.
func TileInfoFrom(ctx context.Context) (TileInfo, bool) {
	if ctx == nil {
		return TileInfo{}, false
	}
	info, ok := ctx.Value(tileInfoKey{}).(TileInfo)
	return info, ok
}
