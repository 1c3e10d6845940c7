package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cfaopc/internal/flow"
	"cfaopc/internal/layout"
)

// newGovernedService is newTestService with the manager config open
// for overload knobs (budget, TTL, watermarks).
func newGovernedService(t *testing.T, mutate func(*ManagerConfig), start bool) (*Manager, *httptest.Server) {
	t.Helper()
	cfg := ManagerConfig{
		DataDir:    filepath.Join(t.TempDir(), "data"),
		LayoutRoot: testLayoutRoot(t),
		MaxActive:  1,
		QueueCap:   16,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if start {
		m.Start()
	}
	ts := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		ts.Close()
		m.Stop()
	})
	return m, ts
}

// postRaw is postJob without the body close, for tests that decode
// structured error bodies.
func postRaw(t *testing.T, base, specJSON string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// decodeAPIError asserts the structured error contract: JSON body with
// reason, and — on 429 — retry_after_ms matching a Retry-After header.
func decodeAPIError(t *testing.T, resp *http.Response, wantCode int, wantReason string) apiError {
	t.Helper()
	if resp.StatusCode != wantCode {
		t.Fatalf("status %d, want %d", resp.StatusCode, wantCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("error content-type %q, want JSON", ct)
	}
	var body apiError
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error body not apiError JSON: %v", err)
	}
	if body.Reason != wantReason {
		t.Fatalf("reason %q, want %q (error: %s)", body.Reason, wantReason, body.Error)
	}
	if wantCode == http.StatusTooManyRequests {
		if body.RetryAfterMS <= 0 {
			t.Fatalf("429 without retry_after_ms: %+v", body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After header")
		}
	}
	return body
}

func TestHTTPStructured429AndBudget400(t *testing.T) {
	_, ts := newGovernedService(t, func(cfg *ManagerConfig) {
		cfg.QueueCap = 1
		// Budget fits exactly one fastSpec job (~3.8 MiB); the second
		// is over_budget, and a huge spec exceeds the whole budget.
		cfg.Governor = GovernorConfig{MemBudget: 6 << 20}
	}, false) // not started: jobs stay queued, decisions are pure admission

	if _, resp := postJob(t, ts.URL, fastSpecJSON); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first job: %s", resp.Status)
	}
	// Second identical job: the budget is spent -> governor 429.
	resp := postRaw(t, ts.URL, fastSpecJSON)
	decodeAPIError(t, resp, http.StatusTooManyRequests, "over_budget")

	// A job bigger than the whole budget can never be admitted: typed 400.
	huge := `{"layout":"t.glp","grid":2048,"tile_core":256,"tile_halo":64,"kopt":12,"tile_workers":8}`
	resp = postRaw(t, ts.URL, huge)
	decodeAPIError(t, resp, http.StatusBadRequest, "job_exceeds_budget")

	// Queue-full also speaks the structured dialect. Fresh service with
	// room in the budget but a one-slot queue.
	_, ts2 := newGovernedService(t, func(cfg *ManagerConfig) { cfg.QueueCap = 1 }, false)
	if _, resp := postJob(t, ts2.URL, fastSpecJSON); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first job: %s", resp.Status)
	}
	resp = postRaw(t, ts2.URL, fastSpecJSON)
	decodeAPIError(t, resp, http.StatusTooManyRequests, "queue_full")

	// Plain bad specs carry the contract too.
	resp = postRaw(t, ts2.URL, `{"grid":1}`)
	decodeAPIError(t, resp, http.StatusBadRequest, "bad_spec")
}

func TestHTTPHealthzSections(t *testing.T) {
	_, ts := newGovernedService(t, func(cfg *ManagerConfig) {
		cfg.Governor = GovernorConfig{MemBudget: 128 << 20}
	}, false)
	if _, resp := postJob(t, ts.URL, fastSpecJSON); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		OK       bool           `json:"ok"`
		Queue    QueueHealth    `json:"queue"`
		Governor GovernorHealth `json:"governor"`
		Storage  StorageHealth  `json:"storage"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK {
		t.Fatal("not ok")
	}
	if h.Queue.Depth != 1 || h.Queue.Cap != 16 || h.Queue.Tenants["default"] != 1 {
		t.Fatalf("queue section = %+v", h.Queue)
	}
	if h.Queue.OldestAgeMS < 0 {
		t.Fatalf("oldest age %d negative", h.Queue.OldestAgeMS)
	}
	if h.Governor.Budget != 128<<20 || h.Governor.Committed <= 0 || h.Governor.Level != "normal" {
		t.Fatalf("governor section = %+v", h.Governor)
	}
	if h.Storage.EventLogBytes <= 0 {
		t.Fatalf("storage section = %+v (PR9 section must survive)", h.Storage)
	}
}

// TestSSEKeepalive asserts an idle stream carries periodic keepalive
// comments, so proxies and clients can tell a quiet job from a dead
// daemon.
func TestSSEKeepalive(t *testing.T) {
	oldKeep := sseKeepalive
	sseKeepalive = 20 * time.Millisecond
	defer func() { sseKeepalive = oldKeep }()

	_, ts := newGovernedService(t, nil, false) // job queues forever
	st, resp := postJob(t, ts.URL, fastSpecJSON)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}
	stream, err := http.Get(ts.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	found := make(chan bool, 1)
	go func() {
		sc := bufio.NewScanner(stream.Body)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), ": keepalive") {
				found <- true
				return
			}
		}
		found <- false
	}()
	select {
	case ok := <-found:
		if !ok {
			t.Fatal("stream ended without a keepalive comment")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no keepalive within 5s on an idle stream")
	}
}

// stallWriter simulates a client whose TCP window never reopens: every
// body write blocks until the armed write deadline expires, then fails
// the way a real net.Conn does.
type stallWriter struct {
	mu       sync.Mutex
	deadline time.Time
	header   http.Header
}

func (w *stallWriter) Header() http.Header { return w.header }
func (w *stallWriter) WriteHeader(int)     {}
func (w *stallWriter) Flush()              {}
func (w *stallWriter) SetWriteDeadline(t time.Time) error {
	w.mu.Lock()
	w.deadline = t
	w.mu.Unlock()
	return nil
}
func (w *stallWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	d := w.deadline
	w.mu.Unlock()
	if d.IsZero() {
		// No deadline armed would mean blocking forever; fail loudly so
		// the test catches a handler that writes without arming.
		return 0, os.ErrDeadlineExceeded
	}
	time.Sleep(time.Until(d))
	return 0, os.ErrDeadlineExceeded
}

// TestSSEStalledClientDropped pins the stall contract: a client that
// stops reading is disconnected within the write deadline instead of
// pinning the handler forever.
func TestSSEStalledClientDropped(t *testing.T) {
	oldKeep, oldTO := sseKeepalive, sseWriteTimeout
	sseKeepalive, sseWriteTimeout = 10*time.Millisecond, 40*time.Millisecond
	defer func() { sseKeepalive, sseWriteTimeout = oldKeep, oldTO }()

	m, ts := newGovernedService(t, nil, false)
	st, resp := postJob(t, ts.URL, fastSpecJSON)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}

	r := httptest.NewRequest("GET", "/jobs/"+st.ID+"/events", nil)
	r.SetPathValue("id", st.ID)
	w := &stallWriter{header: http.Header{}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveEvents(m, w, r)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("serveEvents still blocked on a stalled client after 5s")
	}
}

// gateWriter holds every write until open is closed, then records it: a
// client that reads nothing until it chooses to.
type gateWriter struct {
	header http.Header
	open   chan struct{}
	body   bytes.Buffer
}

func (w *gateWriter) Header() http.Header                { return w.header }
func (w *gateWriter) WriteHeader(int)                    {}
func (w *gateWriter) Flush()                             {}
func (w *gateWriter) SetWriteDeadline(t time.Time) error { return nil }
func (w *gateWriter) Write(p []byte) (int, error) {
	<-w.open
	return w.body.Write(p)
}

// TestSSESlowClientGetsEverySeq: a client whose handler is stuck in its
// first write while a job publishes thousands of events — more than the
// 1,024 a per-client ring once kept — still receives seqs 1..N, gap-free
// and without a dropped-events comment, once it reads. A reconnect from
// the middle with Last-Event-ID replays exactly the rest.
func TestSSESlowClientGetsEverySeq(t *testing.T) {
	const beats = 3000
	m, ts := newGovernedService(t, nil, false)
	m.runSpec = func(ctx context.Context, _ *layout.Layout, _ *JobSpec, o RunOpts) (*flow.Result, error) {
		for i := 0; i < beats; i++ {
			o.Events(flow.Event{Kind: flow.EventBeat, Iter: i})
		}
		return &flow.Result{}, nil
	}
	st, resp := postJob(t, ts.URL, fastSpecJSON)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}

	r := httptest.NewRequest("GET", "/jobs/"+st.ID+"/events", nil)
	r.SetPathValue("id", st.ID)
	w := &gateWriter{header: http.Header{}, open: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveEvents(m, w, r)
	}()
	m.Start()
	if fin := waitTerminal(t, m, st.ID); fin.State != JobDone {
		t.Fatalf("job ended %s (%q)", fin.State, fin.Error)
	}
	close(w.open)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the stream did not end after the job was done")
	}
	if strings.Contains(w.body.String(), "dropped") {
		t.Fatal("the stream reports dropped events")
	}
	evs := readSSE(t, &w.body)
	n := getStatus(t, ts.URL, st.ID).LastSeq
	if int64(len(evs)) != n || n < beats+3 {
		t.Fatalf("the slow client got %d events, want all %d (%d beats and three states)", len(evs), n, beats)
	}
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			t.Fatalf("position %d has seq %d: stream not contiguous", i, ev.Seq)
		}
	}
	if last := evs[n-1]; last.Kind != "state" || last.State != string(JobDone) {
		t.Fatalf("the stream ends with %+v, want the done event", last)
	}

	cut := n / 2
	tail := streamEvents(t, ts.URL, st.ID, cut)
	if int64(len(tail)) != n-cut {
		t.Fatalf("Last-Event-ID %d replayed %d events, want %d", cut, len(tail), n-cut)
	}
	for i, ev := range tail {
		if ev != evs[cut+int64(i)] {
			t.Fatalf("replay position %d is %+v, want %+v", i, ev, evs[cut+int64(i)])
		}
	}
}

// flushHookWriter records the stream and calls onFlush from every Flush:
// a way to make something happen at an exact point of serveEvents' loop.
type flushHookWriter struct {
	header  http.Header
	body    bytes.Buffer
	onFlush func()
}

func (w *flushHookWriter) Header() http.Header                { return w.header }
func (w *flushHookWriter) WriteHeader(int)                    {}
func (w *flushHookWriter) Write(p []byte) (int, error)        { return w.body.Write(p) }
func (w *flushHookWriter) SetWriteDeadline(t time.Time) error { return nil }
func (w *flushHookWriter) Flush()                             { w.onFlush() }

// The hub publishes a job's terminal event and then closes. When both
// land after the handler has drained a batch and before it next looks at
// the hub, the handler used to see "shut", skip the final drain and end
// the stream without the terminal event (about one job in 70 in the
// benchmark's daemon workload; the client had to reconnect). The flush
// of the first batch is that window: cancel the queued job from there.
func TestSSETerminalEventSurvivesHubClose(t *testing.T) {
	m, ts := newGovernedService(t, nil, false) // no executors: the job stays queued
	st, resp := postJob(t, ts.URL, fastSpecJSON)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}

	r := httptest.NewRequest("GET", "/jobs/"+st.ID+"/events", nil)
	r.SetPathValue("id", st.ID)
	w := &flushHookWriter{header: http.Header{}}
	canceled := false
	w.onFlush = func() {
		if canceled || w.body.Len() == 0 {
			return // the flush before the loop carries no event yet
		}
		canceled = true
		if _, err := m.Cancel(st.ID); err != nil {
			t.Error(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveEvents(m, w, r)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("serveEvents did not end after the job was canceled")
	}
	if !canceled {
		t.Fatal("the stream ended before its first batch was flushed")
	}
	if body := w.body.String(); !strings.Contains(body, `"state":"canceled"`) {
		t.Fatalf("stream ended without the terminal event:\n%s", body)
	}
}
