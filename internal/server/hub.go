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
	// transition so clients see pressure changes in-band.
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
	Shots    int     `json:"shots,omitempty"`     // kind=tile, and kind=state done
	TravelNM float64 `json:"travel_nm,omitempty"` // kind=state done: beam travel of shots.csv
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

// hub is one job's event stream: a group commit (DESIGN §8) in front of
// an in-memory history that every SSE stream reads by cursor. An event
// gets its seq and its journal Append under the hub lock — journal order
// is seq order — and joins pending; one committer at a time issues a
// single Sync for what was appended before it started, then moves exactly
// that batch into history and rings grew. No event is visible before the
// Sync covering it returns, so every Seq a client saw replays after a
// crash and Last-Event-ID reconnects are exact; what a crash may lose —
// appended, unsynced — no client ever saw. A reader holds nothing in the
// hub: a slow one falls behind in history, and the flow never waits for it.
type hub struct {
	mu       sync.Mutex
	journal  *checkpoint.Journal // nil once closed: no further events will be published
	history  []JobEvent          // durable and visible; history[i].Seq == i+1
	pending  []JobEvent          // appended, not yet covered by a Sync
	syncing  bool                // a committer is inside Sync
	bg       bool                // post's committer goroutine is alive
	released sync.Cond           // L = &mu; rung after every Sync and when bg ends
	err      error               // a journal failure: sticky, drops everything pending unseen
	grew     chan struct{}       // closed, and replaced, when history grows or the hub closes
}

// newHub wraps an already durable history; a nil journal is a closed hub.
func newHub(journal *checkpoint.Journal, history []JobEvent) *hub {
	h := &hub{journal: journal, history: history, grew: make(chan struct{})}
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

// publish (state and governor events, a run's first tile) returns once
// ev's batch is durable and released. If the append or the covering
// fsync fails, the event reaches no stream and the hub stays failed:
// the error ends this job's stream. A closed hub (shutdown racing a late
// event) only skips the journal.
func (h *hub) publish(ev JobEvent) (JobEvent, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ev, err := h.appendLocked(ev)
	if err == nil && !h.commitLocked(ev.Seq) {
		err = h.err
	}
	return ev, err
}

// post (running, the bridge's beats and later tiles) returns once the
// append lands. One goroutine, gone when nothing is pending, commits
// behind it once a lane blocks or is preempted, or a publish does first.
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

// release makes a durable batch visible and wakes every waiting reader.
// Callers hold h.mu.
func (h *hub) release(batch []JobEvent) {
	h.history = append(h.history, batch...)
	close(h.grew)
	h.grew = make(chan struct{})
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

// since returns the visible events after seq, whether the stream has
// ended (the hub is closed: nothing but a shutdown-racing straggler will
// follow), and a channel closed once there is more to read. All three
// come from one look under the lock, so a reader that sees ended has
// every event released before the close. The events alias history, which
// only ever grows: read them, never write them.
func (h *hub) since(seq int64) (evs []JobEvent, ended bool, grew <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := int64(len(h.history))
	seq = min(max(seq, 0), n)
	return h.history[seq:n:n], h.journal == nil, h.grew
}

// close releases the journal handle and marks the stream ended. The
// history stays readable, so a late reader of a finished job still
// replays the full stream. Every waiting reader is woken: if the stream
// ended without a terminal event (the event journal failed before one
// could be made durable, or the daemon is stopping), it must not wait
// forever for a seq that will never come.
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
		close(h.grew)
		h.grew = make(chan struct{})
	}
}
