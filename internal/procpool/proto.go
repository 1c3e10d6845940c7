// Package procpool is the wire layer of the tile-worker session: its
// message schema, one WriteMessage/ReadMessage pair that puts a gob
// message in an iox frame (length-prefixed, CRC32-guarded — the frame
// internal/checkpoint uses on disk), the worker-side task loop
// (ServeTasks), and Spawn, which makes a subprocess's stdin/stdout one
// more connection the session can run over. The session itself
// (handshake, message stream) lives in internal/netpool and is the same
// on pipes and on TCP.
//
// The package deliberately knows nothing about the flow: a Task payload
// is a quarantine.Bundle (the self-contained window encoding PR 4
// introduced for post-mortem repro, promoted here to a live wire
// format), and the Runner that executes it is injected by the caller.
// That keeps procpool a leaf below both internal/flow (which supervises
// workers) and internal/procworker (which serves them), so neither
// direction creates an import cycle.
package procpool

import (
	"fmt"
	"io"

	"cfaopc/internal/geom"
	"cfaopc/internal/iox"
	"cfaopc/internal/quarantine"
)

// MaxFrameBytes bounds one message's frame payload: a corrupt or hostile
// length prefix must not demand an absurd allocation. It matches
// quarantine.MaxBundleBytes since a Task frame carries a bundle.
const MaxFrameBytes = 256 << 20

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

// Task asks a worker to run one window through the full degradation
// ladder. The window itself — target raster, optics, tiling knobs,
// engine metadata — travels as a
// quarantine.Bundle: the repro-bundle encoding already proves a tile is
// fully serializable, so it doubles as the live wire format (the
// bundle's Attempts history is empty in a task; ValidateTask checks a
// task-grade bundle).
type Task struct {
	Bundle quarantine.Bundle
	// Dispatch counts how many times this tile has been handed to a
	// worker (0 on the first dispatch, +1 per crash-redispatch). It is
	// published on the attempt context (flow.TileInfo), so a wrapper that
	// kills its worker mid-tile can stop after a scripted number of kills.
	Dispatch int
}

// Beat is one optimizer heartbeat forwarded across the process
// boundary, so the supervisor's silence bound sees exactly the
// liveness stream the in-process stall timer would.
type Beat struct {
	Index int
	Iter  int
	Loss  float64
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
	Stalled  bool // killed by the stall timer
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
	Hello *Hello
	Ping  *Ping
	Task  *Task
	Beat  *Beat
	Reply *Reply
}

// WriteMessage gob-encodes m and writes it as one frame in a single
// Write call, so messages from one serialized writer never interleave.
func WriteMessage(w io.Writer, m *Message) error {
	payload, err := iox.EncodeGob(m)
	if err != nil {
		return fmt.Errorf("procpool: encode message: %w", err)
	}
	frame, err := iox.AppendFrame(nil, payload, MaxFrameBytes)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// ReadMessage reads one frame and decodes its message. io.EOF at a frame
// boundary is a clean end of stream; a torn, corrupt or oversized frame
// is the matching iox error.
func ReadMessage(r io.Reader) (*Message, error) {
	payload, err := iox.ReadFrame(r, MaxFrameBytes)
	if err != nil {
		return nil, err
	}
	return DecodeMessage(payload)
}

// DecodeMessage decodes one frame payload and checks the one-of
// invariant.
func DecodeMessage(p []byte) (*Message, error) {
	m := new(Message)
	if err := iox.DecodeGob(p, m); err != nil {
		return nil, fmt.Errorf("procpool: decode message: %w", err)
	}
	set := 0
	for _, field := range []bool{
		m.Hello != nil, m.Ping != nil, m.Task != nil,
		m.Beat != nil, m.Reply != nil,
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
