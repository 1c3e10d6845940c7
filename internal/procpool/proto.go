package procpool

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"cfaopc/internal/geom"
	"cfaopc/internal/quarantine"
)

// ProtocolVersion is bumped whenever the message schema or the
// handshake order changes incompatibly; either side refuses a peer
// whose Hello disagrees. v2 added Fingerprint and Reject; v3 made the
// handshake coordinator-first on every transport, so a v2 pipe worker
// (which announced itself unasked) is refused by version instead of
// wedging the exchange.
const ProtocolVersion = 3

// Hello is the handshake frame, the same on a subprocess's pipes and on
// TCP. The coordinator's Hello opens the session and carries the run's
// config fingerprint; the worker's answer either echoes the accepted
// fingerprint or carries a Reject reason and closes — version skew and
// config skew fail the connection at the handshake, not mid-run.
type Hello struct {
	Version int
	PID     int
	// Fingerprint is the coordinator run's config fingerprint (the same
	// string that prefixes window dedup-cache keys). A worker started
	// with a fingerprint pin rejects a coordinator whose fingerprint
	// differs; the worker's reply echoes the fingerprint it accepted.
	Fingerprint string
	// Reject is the worker's reason for refusing the handshake
	// (version skew, fingerprint pin mismatch). A non-empty Reject is
	// terminal: the worker closes the connection after sending it.
	Reject string
}

// Ping is a bare liveness frame the worker emits periodically while a
// task is in flight, so the supervisor's silence watchdog distinguishes
// a long-running tile from a wedged or dead process even when the
// optimizer itself emits no heartbeats.
type Ping struct{}

// PartialState is a resumable optimizer snapshot in wire form — the
// fields of the flow's partial checkpoint record (flat parameters plus
// Adam state) without importing the flow.
type PartialState struct {
	Attempt int
	Iter    int
	Loss    float64
	Params  []float64
	OptT    int
	OptM    []float64
	OptV    []float64
}

// Task asks a worker to run one window through the full degradation
// ladder. The window itself — target raster, optics, tiling knobs,
// engine metadata, injected-fault script — travels as a
// quarantine.Bundle: the repro-bundle encoding already proves a tile is
// fully serializable, so it doubles as the live wire format (the
// bundle's Attempts history is empty in a task; ValidateTask checks a
// task-grade bundle).
type Task struct {
	Bundle quarantine.Bundle
	// Dispatch counts how many times this tile has been handed to a
	// worker (0 on the first dispatch, +1 per crash-redispatch). It is
	// published on the attempt context so deterministic process-fatal
	// fault scripts (flow.Fault.Kill) stop firing after the scripted
	// number of kills.
	Dispatch int
	// Workers is the per-kernel litho parallelism inside the worker.
	Workers int
	// PartialEvery > 0 asks the worker to stream optimizer snapshots
	// back as Partial frames every that many iterations.
	PartialEvery int
	// Resume, when non-nil, warm-starts the tile from a journaled
	// partial snapshot (checkpoint resume across the process boundary).
	Resume *PartialState
}

// Beat is one optimizer heartbeat forwarded across the process
// boundary, so the supervisor's silence watchdog sees exactly the
// liveness stream the in-process stall watchdog would.
type Beat struct {
	Index int
	Iter  int
	Loss  float64
}

// Partial is a mid-tile optimizer snapshot forwarded to the supervisor
// for journaling.
type Partial struct {
	Index int
	State PartialState
}

// Outcome records one optimizer invocation (flow.AttemptOutcome is
// this type): it travels in a worker's Reply and feeds TileStat.Failure,
// quarantine bundles, and replay comparison.
type Outcome struct {
	Attempt  int    // global attempt counter; the fallback is TileRetries+1
	Engine   string // "primary" or "fallback"
	Err      string // "" on success; capped by the flow at 2 KiB
	Iters    int    // heartbeats emitted during this attempt
	LastLoss float64
	Stalled  bool // killed by the stall watchdog
}

// Reply is the worker's result for one task: window-local shots (the
// supervisor applies core ownership), the degradation path, and the
// per-attempt history that keeps TileStat truthful. Err is a
// deterministic task-level failure (unreadable bundle, unknown engine)
// — retrying it will not help, which the supervisor's circuit breaker
// turns into in-process degradation.
type Reply struct {
	Index    int
	Shots    []geom.Circle
	Path     string
	Outcomes []Outcome
	Err      string
}

// Message is the one-of envelope every frame carries; exactly one field
// is non-nil.
type Message struct {
	Hello   *Hello
	Ping    *Ping
	Task    *Task
	Beat    *Beat
	Partial *Partial
	Reply   *Reply
}

// EncodeMessage gob-encodes one message for framing.
func EncodeMessage(m *Message) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return nil, fmt.Errorf("procpool: encode message: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeMessage decodes one framed payload and checks the one-of
// invariant.
func DecodeMessage(p []byte) (*Message, error) {
	m := new(Message)
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(m); err != nil {
		return nil, fmt.Errorf("procpool: decode message: %w", err)
	}
	set := 0
	for _, field := range []bool{
		m.Hello != nil, m.Ping != nil, m.Task != nil,
		m.Beat != nil, m.Partial != nil, m.Reply != nil,
	} {
		if field {
			set++
		}
	}
	if set != 1 {
		return nil, fmt.Errorf("procpool: message sets %d of the one-of fields", set)
	}
	return m, nil
}

// EventKind discriminates the coordinator-side events of a session.
type EventKind int

const (
	EvPing EventKind = iota
	EvBeat
	EvPartial
	EvReply
	// EvExit is the terminal event: the worker died or the stream
	// broke. Err is io.EOF for a clean close, the framing or decode
	// error otherwise; no further events follow.
	EvExit
)

// Event is one occurrence on a session's worker→coordinator stream.
// Exactly the field matching Kind is set (Err only for EvExit).
type Event struct {
	Kind    EventKind
	Beat    *Beat
	Partial *Partial
	Reply   *Reply
	Err     error
}
