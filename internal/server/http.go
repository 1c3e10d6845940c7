package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// SSE keepalive cadence and per-write stall budget. The keepalive
// comment serves two jobs: it keeps idle connections alive through
// proxies, and it guarantees a blocked client is *written to* at least
// every sseKeepalive — which is what arms the write deadline. A client
// whose TCP window stays closed past sseWriteTimeout gets its write
// errored by the deadline, ending the handler instead of pinning it
// forever. Vars, not consts: the blocked-reader test tightens them.
var (
	sseKeepalive    = 15 * time.Second
	sseWriteTimeout = 30 * time.Second
)

// apiError is the structured body every 4xx/5xx JSON error carries.
// 429s also set the Retry-After header (seconds, rounded up) to the
// same value as retry_after_ms.
type apiError struct {
	Error        string `json:"error"`                    // human-readable message
	Reason       string `json:"reason"`                   // machine-readable: bad_spec | queue_full | over_budget | admission_paused | job_exceeds_budget | not_found | not_ready
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"` // when retrying can help
}

// writeAPIError emits the structured error contract. retryAfter <= 0
// omits the hint.
func writeAPIError(w http.ResponseWriter, code int, reason string, err error, retryAfter time.Duration) {
	body := apiError{Error: err.Error(), Reason: reason}
	if retryAfter > 0 {
		body.RetryAfterMS = retryAfter.Milliseconds()
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, code, body)
}

// NewHandler wires the service API around a Manager:
//
//	POST /jobs              submit a JobSpec      -> 201 JobStatus (400 bad spec / over whole budget,
//	                                                 429 queue full / over budget / admissions paused,
//	                                                 all errors as apiError JSON, 429s with Retry-After)
//	GET  /jobs              list jobs             -> 200 []JobStatus
//	GET  /jobs/{id}         job snapshot          -> 200 JobStatus
//	POST /jobs/{id}/cancel  cancel queued/running -> 200 JobStatus
//	GET  /jobs/{id}/events  SSE progress stream (Last-Event-ID or ?last= resumes)
//	GET  /jobs/{id}/mask    the mask PGM (409 until done)
//	GET  /jobs/{id}/shots   the shot-list CSV (409 until done)
//	GET  /healthz           liveness + queue, governor, and storage sections
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		spec, err := ParseSpec(r.Body)
		if err != nil {
			writeAPIError(w, http.StatusBadRequest, "bad_spec", err, 0)
			return
		}
		st, err := m.Submit(spec)
		var admit *AdmitError
		switch {
		case errors.Is(err, ErrQueueFull):
			// Queue-full prices waiting with the same drain estimate as
			// the governor, so every 429 speaks one Retry-After dialect.
			writeAPIError(w, http.StatusTooManyRequests, "queue_full", err, m.gov.retryAfter())
			return
		case errors.As(err, &admit):
			writeAPIError(w, http.StatusTooManyRequests, admit.Reason, err, admit.RetryAfter)
			return
		case errors.Is(err, ErrJobTooBig):
			// Typed 400: retrying the same spec can never succeed.
			writeAPIError(w, http.StatusBadRequest, "job_exceeds_budget", err, 0)
			return
		case err != nil:
			writeAPIError(w, http.StatusBadRequest, "bad_spec", err, 0)
			return
		}
		writeJSON(w, http.StatusCreated, st)
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.List())
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Status(r.PathValue("id"))
		if err != nil {
			writeAPIError(w, http.StatusNotFound, "not_found", err, 0)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			writeAPIError(w, http.StatusNotFound, "not_found", err, 0)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(m, w, r)
	})
	mux.HandleFunc("GET /jobs/{id}/mask", func(w http.ResponseWriter, r *http.Request) {
		serveArtifact(m, w, r, "image/x-portable-graymap", m.MaskPath)
	})
	mux.HandleFunc("GET /jobs/{id}/shots", func(w http.ResponseWriter, r *http.Request) {
		serveArtifact(m, w, r, "text/csv", m.ShotsPath)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// "ok" is liveness; "storage" is the degradation snapshot; "queue"
		// is the backlog's size and shape; "governor" is the admission
		// budget and ladder position. A daemon whose disk fails still
		// answers — submissions it cannot journal are rejected — and these sections
		// are how an operator tells overload, storage failure, and
		// plain busyness apart.
		writeJSON(w, http.StatusOK, map[string]any{
			"ok":       true,
			"queued":   m.QueueDepth(),
			"queue":    m.QueueHealth(),
			"governor": m.GovernorHealth(),
			"storage":  m.StorageHealth(),
		})
	})
	return mux
}

// serveEvents streams a job's progress as SSE. The client resumes an
// interrupted stream by sending the last seq it saw (the standard
// Last-Event-ID header, or ?last= for hand-rolled clients); the reply
// replays every event after it — exactly, because events are journaled
// before they are visible — then continues live. The handler is a cursor
// over the hub's history, so however slowly a client reads, it gets every
// seq. The stream ends after the job's terminal state event, or when the
// hub ends it without one.
func serveEvents(m *Manager, w http.ResponseWriter, r *http.Request) {
	last := int64(0)
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		last, _ = strconv.ParseInt(v, 10, 64)
	} else if v := r.URL.Query().Get("last"); v != "" {
		last, _ = strconv.ParseInt(v, 10, 64)
	}
	m.mu.Lock()
	j, ok := m.jobs[r.PathValue("id")]
	m.mu.Unlock()
	if !ok {
		writeAPIError(w, http.StatusNotFound, "not_found", ErrNoJob, 0)
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	rc.Flush()

	// Every write batch re-arms a write deadline: a client whose reads
	// stall (closed TCP window, dead proxy) errors the write within
	// sseWriteTimeout instead of blocking this handler. The keepalive tick
	// guarantees a write happens at least every sseKeepalive even on an
	// idle stream, so a stalled client is always detected within
	// sseKeepalive + sseWriteTimeout.
	keep := time.NewTicker(sseKeepalive)
	defer keep.Stop()
	armWrite := func() { rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout)) }

	for {
		evs, ended, grew := j.hub.since(last)
		if len(evs) > 0 {
			armWrite()
			for _, ev := range evs {
				payload, err := json.Marshal(ev)
				if err != nil {
					return
				}
				if _, err := fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.Seq, payload); err != nil {
					return
				}
				if ev.Kind == "state" && JobState(ev.State).terminal() {
					ended = true
				}
			}
			if err := rc.Flush(); err != nil {
				return
			}
			last = evs[len(evs)-1].Seq
		}
		if ended {
			// A terminal event, or a hub closed without one — the event
			// journal died, or the daemon is stopping. The client polls
			// the job status or reconnects rather than waiting for a seq
			// that will never come.
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-grew:
		case <-keep.C:
			armWrite()
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
		}
	}
}

// serveArtifact serves one of a job's output files. Both are written
// and fsynced after the run and before the job is recorded done, so a
// done job's file is whole and any other state has none to serve.
func serveArtifact(m *Manager, w http.ResponseWriter, r *http.Request, contentType string, path func(id string) string) {
	id := r.PathValue("id")
	st, err := m.Status(id)
	if err != nil {
		writeAPIError(w, http.StatusNotFound, "not_found", err, 0)
		return
	}
	if st.State != JobDone {
		writeAPIError(w, http.StatusConflict, "not_ready", fmt.Errorf("job %s is %s; its artifacts exist once it is done", id, st.State), 0)
		return
	}
	w.Header().Set("Content-Type", contentType)
	http.ServeFile(w, r, path(id))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
