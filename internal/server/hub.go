package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
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
	// Admitted is the job's admission time in unix nanoseconds, on its
	// seq-1 (queued) event only: the anchor its deadline and queue TTL
	// are measured from, in every daemon life.
	Admitted int64 `json:"admitted,omitempty"`

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

// readJournal reads job id's event journal without taking the append
// handle: the spec its header binds — which must be job id's header —
// and its events. A journal that never got its header reads as empty.
func readJournal(fsys iox.FS, path, id string) (*JobSpec, []JobEvent, error) {
	hdr, payloads, err := checkpoint.ReadStoredFS(fsys, path)
	if err != nil || hdr == nil {
		return nil, nil, err
	}
	_, rest, _ := bytes.Cut(hdr, []byte("\n"))
	_, canon, _ := bytes.Cut(rest, []byte("\n"))
	var spec JobSpec
	if json.Unmarshal(canon, &spec) != nil || !bytes.Equal(hdr, eventJournalHeader(id, &spec)) {
		return nil, nil, fmt.Errorf("event journal: %w: not job %s's", checkpoint.ErrHeaderMismatch, id)
	}
	evs, err := decodeEvents(payloads)
	return &spec, evs, err
}

// hub fans one job's event stream out to any number of SSE
// subscribers through a group commit (DESIGN §8). An event gets its seq
// and its journal Append under the hub lock — journal order is seq order
// — and joins pending; one committer at a time issues a single Sync for
// what was appended before it started, then moves exactly that batch
// into history and offers it to every subscriber, never blocking: a slow
// consumer loses its oldest buffered events, not the flow's time. No
// event is visible before the Sync covering it returns, so every Seq a
// client saw replays after a crash and Last-Event-ID reconnects are
// exact; what a crash may lose — appended, unsynced — no client ever saw.
type hub struct {
	mu       sync.Mutex
	journal  *checkpoint.Journal // nil once closed: no further events will be published
	history  []JobEvent          // durable and visible; history[i].Seq == i+1
	pending  []JobEvent          // appended, not yet covered by a Sync
	syncing  bool                // a committer is inside Sync
	bg       bool                // post's committer goroutine is alive
	released sync.Cond           // L = &mu; rung after every Sync and when bg ends
	err      error               // a journal failure: sticky, drops everything pending unseen
	subs     map[*subscriber]struct{}
}

// newHub wraps an already durable history; a nil journal is a closed hub.
func newHub(journal *checkpoint.Journal, history []JobEvent) *hub {
	h := &hub{journal: journal, history: history, subs: map[*subscriber]struct{}{}}
	h.released.L = &h.mu
	return h
}

// newHubFS opens (or reopens) the job's event journal and rebuilds the
// in-memory history from it, so seq numbering continues where a killed
// daemon stopped.
func newHubFS(fsys iox.FS, path, jobID string, spec *JobSpec) (*hub, error) {
	journal, payloads, err := checkpoint.OpenFS(fsys, path, eventJournalHeader(jobID, spec))
	if err != nil {
		return nil, fmt.Errorf("event journal: %w", err)
	}
	history, err := decodeEvents(payloads)
	if err != nil {
		journal.Close()
		return nil, err
	}
	return newHub(journal, history), nil
}

// decodeEvents unmarshals journal records, which carry seqs 1..n.
func decodeEvents(payloads [][]byte) ([]JobEvent, error) {
	evs := make([]JobEvent, 0, len(payloads))
	for i, p := range payloads {
		var ev JobEvent
		if err := json.Unmarshal(p, &ev); err != nil {
			return nil, fmt.Errorf("event journal record %d: %w", i, err)
		}
		if ev.Seq != int64(i)+1 {
			return nil, fmt.Errorf("event journal record %d: seq %d, want %d", i, ev.Seq, i+1)
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

// publish (state and governor events) returns once ev's batch is durable
// and released. If the append or the covering fsync fails, the event
// reaches no subscriber and the hub stays failed: the error ends this
// job's stream. A closed hub (shutdown racing a late event) only skips
// the journal.
func (h *hub) publish(ev JobEvent) (JobEvent, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ev, err := h.appendLocked(ev)
	if err == nil && !h.commitLocked(ev.Seq) {
		err = h.err
	}
	return ev, err
}

// post (the bridge's tile and beat events, and running) returns once the
// append lands — a tile lane never waits on an fsync; one goroutine,
// gone when nothing is pending, commits behind it.
func (h *hub) post(ev JobEvent) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, err := h.appendLocked(ev)
	if len(h.pending) > 0 && !h.bg {
		h.bg = true
		go func() {
			h.mu.Lock()
			defer h.mu.Unlock()
			h.commitLocked(math.MaxInt64)
			h.bg = false
			h.released.Broadcast()
		}()
	}
	return err
}

// appendLocked assigns the next seq and appends the record.
func (h *hub) appendLocked(ev JobEvent) (JobEvent, error) {
	if h.err != nil {
		return ev, h.err
	}
	ev.Seq = int64(len(h.history)+len(h.pending)) + 1
	payload, err := json.Marshal(ev)
	if err != nil {
		panic("server: marshal JobEvent failed: " + err.Error())
	}
	if h.journal == nil {
		h.release([]JobEvent{ev})
	} else if err := h.journal.Append(payload); err != nil {
		h.err = fmt.Errorf("event journal: %w", err)
	} else {
		h.pending = append(h.pending, ev)
	}
	return ev, h.err
}

// commitLocked reports whether seq until got released; it gives up only
// when nothing is pending. Whoever finds no Sync in flight runs the next
// one itself (a waiter handing off to a goroutine would wait milliseconds
// for it to get a P), counting its batch first: Journal.Sync covers what
// was appended before the call, nothing after.
func (h *hub) commitLocked(until int64) bool {
	for int64(len(h.history)) < until && len(h.pending) > 0 {
		if h.syncing {
			h.released.Wait()
			continue
		}
		h.syncing = true
		n, journal := len(h.pending), h.journal
		h.mu.Unlock()
		err := journal.Sync()
		h.mu.Lock()
		h.syncing = false
		if err != nil {
			h.err, h.pending = fmt.Errorf("event journal: %w", err), nil
		} else {
			h.release(h.pending[:n])
			h.pending = h.pending[n:]
		}
		h.released.Broadcast()
	}
	return int64(len(h.history)) >= until
}

// release makes a durable batch visible. Callers hold h.mu.
func (h *hub) release(batch []JobEvent) {
	h.history = append(h.history, batch...)
	for sub := range h.subs {
		for _, ev := range batch {
			sub.offer(ev)
		}
	}
}

// failure returns the hub's sticky journal error, nil while healthy.
func (h *hub) failure() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
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
	if h.journal == nil {
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
	// Drain: nothing stays pending and no committer outlives the handle.
	h.commitLocked(math.MaxInt64)
	for h.bg {
		h.released.Wait()
	}
	if h.journal != nil {
		h.journal.Close()
		h.journal = nil
	}
	for sub := range h.subs {
		sub.shut()
	}
}

// Subscribe attaches a drop-oldest event consumer to a job's stream,
// replaying everything after sinceSeq first. The caller must call
// Unsubscribe when done.
func (m *Manager) Subscribe(id string, sinceSeq int64, capacity int) (*subscriber, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrNoJob
	}
	return j.hub.subscribe(sinceSeq, capacity), nil
}

// Unsubscribe detaches a Subscribe consumer.
func (m *Manager) Unsubscribe(id string, sub *subscriber) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if ok {
		j.hub.unsubscribe(sub)
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
