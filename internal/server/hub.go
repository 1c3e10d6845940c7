package server

import (
	"encoding/json"
	"fmt"
	"sync"

	"cfaopc/internal/checkpoint"
	"cfaopc/internal/iox"
)

// JobEvent is one entry in a job's progress stream, as serialized to
// both the per-job event journal and the SSE wire. Seq is assigned at
// publish, starts at 1, and never repeats or regresses for a given job
// — not even across a daemon crash, because the journal is the
// authoritative history and new events continue after its tail.
type JobEvent struct {
	Seq  int64  `json:"seq"`
	Kind string `json:"kind"` // state | beat | tile | governor

	// kind=state: queued|running|done|failed|canceled|deadline_exceeded.
	// kind=governor: the degradation-ladder level just entered
	// (normal|shrink|pause|shed) — every live job's stream carries the
	// transition so subscribers see pressure changes in-band.
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"` // kind=state, failed only

	From string `json:"from,omitempty"` // kind=governor: level just left
	Heap int64  `json:"heap,omitempty"` // kind=governor: heap bytes that triggered it

	Tile     int     `json:"tile,omitempty"`      // kind=beat|tile
	Iter     int     `json:"iter,omitempty"`      // kind=beat
	Loss     float64 `json:"loss,omitempty"`      // kind=beat
	Shots    int     `json:"shots,omitempty"`     // kind=tile
	Resumed  bool    `json:"resumed,omitempty"`   // kind=tile: replayed from the flow checkpoint
	CacheHit bool    `json:"cache_hit,omitempty"` // kind=tile: served from the window cache
	Path     string  `json:"path,omitempty"`      // kind=tile: primary|fallback|empty

	// Decode-only: nothing publishes kind=band, but event journals
	// written when mask bands were announced carry it, and these fields
	// are what lets them replay byte for byte.
	Row  int `json:"row,omitempty"`
	Rows int `json:"rows,omitempty"`
}

// eventJournalHeader fingerprints a job's event journal so a data
// directory can never pair one job's history with another's spec.
func eventJournalHeader(jobID string, spec *JobSpec) []byte {
	return []byte("cfaopcd-events-v1\n" + jobID + "\n" + string(spec.Canonical()))
}

// hub fans one job's event stream out to any number of SSE
// subscribers. Publishing journals the event first — durably — then
// appends it to the in-memory history and offers it to every
// subscriber without blocking: a slow consumer loses its oldest
// buffered events, never the flow's time. Because an event is on disk
// before any client can see it, every Seq a client has observed is
// replayable after a crash, which is what makes Last-Event-ID
// reconnects exact.
type hub struct {
	mu      sync.Mutex
	journal *checkpoint.Journal // nil once closed
	history []JobEvent          // full stream; history[i].Seq == i+1
	subs    map[*subscriber]struct{}
	closed  bool // no further events will ever be published
}

// newHubFS opens (or reopens) the job's event journal and rebuilds the
// in-memory history from it, so seq numbering continues where a killed
// daemon stopped.
func newHubFS(fsys iox.FS, path, jobID string, spec *JobSpec) (*hub, error) {
	journal, payloads, err := checkpoint.OpenFS(fsys, path, eventJournalHeader(jobID, spec))
	if err != nil {
		return nil, fmt.Errorf("event journal: %w", err)
	}
	h := &hub{journal: journal, subs: map[*subscriber]struct{}{}}
	for i, p := range payloads {
		var ev JobEvent
		if err := json.Unmarshal(p, &ev); err != nil {
			journal.Close()
			return nil, fmt.Errorf("event journal record %d: %w", i, err)
		}
		if ev.Seq != int64(len(h.history))+1 {
			journal.Close()
			return nil, fmt.Errorf("event journal record %d: seq %d, want %d", i, ev.Seq, len(h.history)+1)
		}
		h.history = append(h.history, ev)
	}
	return h, nil
}

// readHistoryFS replays a finished job's event journal without taking
// the append handle — the restart path for jobs that need no new
// events.
func readHistoryFS(fsys iox.FS, path, jobID string, spec *JobSpec) ([]JobEvent, error) {
	payloads, err := checkpoint.ReadFS(fsys, path, eventJournalHeader(jobID, spec))
	if err != nil {
		return nil, err
	}
	evs := make([]JobEvent, 0, len(payloads))
	for i, p := range payloads {
		var ev JobEvent
		if err := json.Unmarshal(p, &ev); err != nil {
			return nil, fmt.Errorf("event journal record %d: %w", i, err)
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

// publish assigns the next seq, makes the event durable, and only then
// fans it out. Durability before visibility is absolute: if the append
// or the fsync fails, the event never reaches the history or any
// subscriber and publish returns the error — so every Seq a client has
// ever observed is on disk and replays exactly after a crash. A failed
// journal stays failed (checkpoint poisoning), so the caller must
// treat a publish error as the end of this job's event stream. On a
// closed hub (shutdown racing a late event) the journal write is
// skipped but the in-memory stream stays coherent.
func (h *hub) publish(ev JobEvent) (JobEvent, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ev.Seq = int64(len(h.history)) + 1
	payload, err := json.Marshal(ev)
	if err != nil {
		panic("server: marshal JobEvent failed: " + err.Error())
	}
	if h.journal != nil {
		if err := h.journal.Append(payload); err != nil {
			return JobEvent{}, fmt.Errorf("event journal: %w", err)
		}
		if err := h.journal.Sync(); err != nil {
			return JobEvent{}, fmt.Errorf("event journal: %w", err)
		}
	}
	h.history = append(h.history, ev)
	for sub := range h.subs {
		sub.offer(ev)
	}
	return ev, nil
}

// subscriberCount reports the live subscriber count — the SSE layer's
// stalled-client drop test asserts it returns to zero.
func (h *hub) subscriberCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// journalSize reports the event journal's on-disk byte size (0 once
// closed), for storage-health reporting.
func (h *hub) journalSize() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.journal == nil {
		return 0
	}
	return h.journal.Size()
}

// lastSeq returns the seq of the newest published event (0 if none).
func (h *hub) lastSeq() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int64(len(h.history))
}

// subscribe registers a consumer whose buffer holds at most capacity
// events, pre-loaded with every event after sinceSeq. Replay and
// registration are atomic under the hub lock, so no event published
// concurrently is missed or doubled. Call h.unsubscribe when done.
func (h *hub) subscribe(sinceSeq int64, capacity int) *subscriber {
	if capacity < 1 {
		capacity = 1
	}
	sub := &subscriber{cap: capacity, notify: make(chan struct{}, 1)}
	h.mu.Lock()
	if sinceSeq < 0 {
		sinceSeq = 0
	}
	if sinceSeq < int64(len(h.history)) {
		// The replay loads directly, bypassing the ring cap: a
		// reconnecting client must get its full backlog, however large;
		// the cap bounds only what accumulates while it consumes.
		sub.buf = append(sub.buf, h.history[sinceSeq:]...)
		sub.notify <- struct{}{}
	}
	if h.closed {
		// The stream already ended; tell the consumer so it drains the
		// replay and stops waiting instead of hanging on a dead doorbell.
		sub.shut()
	}
	h.subs[sub] = struct{}{}
	h.mu.Unlock()
	return sub
}

func (h *hub) unsubscribe(sub *subscriber) {
	h.mu.Lock()
	delete(h.subs, sub)
	h.mu.Unlock()
}

// close releases the journal handle and marks the stream ended. The
// history stays readable, so late subscribers to a finished job still
// replay the full stream. Every live subscriber is woken and marked
// shut: if the stream ended without a terminal event (the event
// journal failed before one could be made durable), consumers must not
// wait forever for a seq that will never come.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.journal != nil {
		h.journal.Close()
		h.journal = nil
	}
	h.closed = true
	for sub := range h.subs {
		sub.shut()
	}
}

// subscriber is one consumer's bounded view of the stream: a
// drop-oldest ring plus a doorbell. offer never blocks; a consumer
// that falls more than cap events behind sees a seq gap (and the
// dropped counter) and can reconnect with Last-Event-ID to replay.
type subscriber struct {
	mu      sync.Mutex
	buf     []JobEvent // oldest first, len <= cap
	cap     int
	dropped int64
	closed  bool // the hub ended the stream; nothing further will arrive
	notify  chan struct{}
}

func (s *subscriber) offer(ev JobEvent) {
	s.mu.Lock()
	if len(s.buf) >= s.cap {
		n := copy(s.buf, s.buf[1:])
		s.buf = s.buf[:n]
		s.dropped++
	}
	s.buf = append(s.buf, ev)
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// drain removes and returns everything buffered, plus how many events
// were dropped since the previous drain.
func (s *subscriber) drain() (evs []JobEvent, dropped int64) {
	s.mu.Lock()
	evs = append(evs, s.buf...)
	s.buf = s.buf[:0]
	dropped, s.dropped = s.dropped, 0
	s.mu.Unlock()
	return evs, dropped
}

// wait returns a channel that receives after the next offer.
func (s *subscriber) wait() <-chan struct{} { return s.notify }

// shut marks the stream ended and rings the doorbell so a waiting
// consumer re-checks. Buffered events stay drainable; a consumer that
// drains to empty while shut knows no more will ever arrive.
func (s *subscriber) shut() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// isShut reports whether the hub has ended this subscriber's stream.
func (s *subscriber) isShut() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}
