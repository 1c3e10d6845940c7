// Live progress events: the subscriber hook that turns a run's internal
// telemetry — optimizer heartbeats (litho.Simulator.Beat), tile completions with
// their full TileStat (cache hits, degradation path, provenance), and
// journal-replayed tiles on resume — into a stream an external observer
// can broadcast. internal/server fans this stream out to SSE clients;
// the flow itself only guarantees the callback order within one tile
// (beats before its completion) and that every planned tile eventually
// emits exactly one EventTile per run (replayed tiles emit theirs during
// journal replay, before any worker starts).
package flow

// EventKind discriminates flow progress events.
type EventKind string

const (
	// EventBeat is one optimizer heartbeat: Tile, Iter and Loss are set.
	// Beats from worker subprocesses and remote hosts are forwarded
	// across the wire by the supervisor, so the stream looks the same in
	// every dispatch mode (liveness frames permitting — a dead link
	// drops its tail, never the completion).
	EventBeat EventKind = "beat"
	// EventTile is one tile completion: Tile and Stat are set. Resumed
	// tiles (replayed from the checkpoint journal) emit it with
	// Stat.Resumed true; cache-served tiles with Stat.CacheHit true.
	EventTile EventKind = "tile"
)

// Event is one observation from a running flow.
type Event struct {
	Kind EventKind
	Tile int     // plan index
	Iter int     // EventBeat: optimizer iteration within the attempt
	Loss float64 // EventBeat: loss at that iteration
	// Stat is the completed tile's record (EventTile only). It is a
	// snapshot owned by the receiver; the flow does not mutate it after
	// the call.
	Stat *TileStat
}

// EventSink observes a run's progress stream. It is called from worker
// goroutines concurrently and synchronously, so it must be fast and
// must never block — a slow downstream consumer has to buffer on its own
// side of the boundary (internal/server's hub keeps the job's history,
// which each reader reads at its own pace). Errors cannot be returned: events are
// observability, not control flow, and a broken subscriber must not be
// able to fail a run.
type EventSink func(Event)

// emitTile publishes one tile completion to the configured sink.
func (env *runEnv) emitTile(index int, stat TileStat) {
	if env.events != nil {
		env.events(Event{Kind: EventTile, Tile: index, Stat: &stat})
	}
}
