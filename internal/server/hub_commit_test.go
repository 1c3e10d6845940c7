package server

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cfaopc/internal/iox"
	"cfaopc/internal/testkit/faultfs"
)

// gateFS parks every file Sync while gated: the call announces itself on
// entered, then waits for a verdict — nil runs the real Sync, an error is
// returned in its place. Ungated it only counts. Closing lifted lets
// every parked and future Sync through, so a failed test still cleans up.
// (internal/checkpoint's tests keep a copy; sharing it would take a
// package.)
type gateFS struct {
	iox.FS
	gated   atomic.Bool
	syncs   atomic.Int64
	entered chan struct{}
	verdict chan error
	lifted  chan struct{}
}

func newGateFS() *gateFS {
	return &gateFS{FS: iox.OSFS{}, entered: make(chan struct{}), verdict: make(chan error), lifted: make(chan struct{})}
}

func (g *gateFS) OpenFile(path string, flag int, perm os.FileMode) (iox.File, error) {
	f, err := g.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}

// parked waits for a Sync to reach the gate; a committer that never
// syncs fails the test here, not at the suite's timeout.
func (g *gateFS) parked(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no Sync reached the gate")
	}
}

type gateFile struct {
	iox.File
	g *gateFS
}

func (f *gateFile) Sync() error {
	f.g.syncs.Add(1)
	if f.g.gated.Load() {
		select {
		case f.g.entered <- struct{}{}:
		case <-f.g.lifted:
		}
		select {
		case err := <-f.g.verdict:
			if err != nil {
				return err
			}
		case <-f.g.lifted:
		}
	}
	return f.File.Sync()
}

// gatedHub opens a hub whose journal syncs park on g.
func gatedHub(t *testing.T) (*hub, *gateFS, string, *JobSpec) {
	t.Helper()
	spec, err := parseSpecString(t, `{"case":1}`)
	if err != nil {
		t.Fatal(err)
	}
	g := newGateFS()
	path := filepath.Join(t.TempDir(), "events.log")
	h, err := newHubFS(g, path, "job-0001", spec)
	if err != nil {
		t.Fatal(err)
	}
	g.gated.Store(true)
	t.Cleanup(h.close) // runs after the gate lifts: close waits for the committer
	t.Cleanup(func() { close(g.lifted) })
	return h, g, path, spec
}

// eventually polls cond for five seconds: the committer is a goroutine,
// so "released" is observed, not returned.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never happened: %s", what)
		}
	}
}

// invisible asserts nothing beyond seq want has reached lastSeq, the
// history a new subscriber replays, or the live subscriber.
func invisible(t *testing.T, h *hub, live *subscriber, want int64) {
	t.Helper()
	if got := h.lastSeq(); got != want {
		t.Fatalf("lastSeq %d while the covering Sync is parked, want %d", got, want)
	}
	late := h.subscribe(0, 64)
	evs, _ := late.drain()
	h.unsubscribe(late)
	if int64(len(evs)) != want {
		t.Fatalf("a new subscriber replayed %d events while the Sync is parked, want %d", len(evs), want)
	}
	live.mu.Lock()
	n := len(live.buf)
	live.mu.Unlock()
	if n != 0 {
		t.Fatalf("the live subscriber holds %d undrained events while the Sync is parked", n)
	}
}

// TestHubBatchInvisibleUntilSynced is durability-before-visibility per
// batch: nothing reaches history, lastSeq or a subscriber while its Sync
// is parked; the batch arrives whole and in seq order once released; and
// events appended during a parked Sync are not released by it — they wait
// for the next one. It fails on a hub that releases before Sync returns
// and on one that releases everything pending when Sync returns.
func TestHubBatchInvisibleUntilSynced(t *testing.T) {
	h, g, path, spec := gatedHub(t)
	live := h.subscribe(0, 64)
	defer h.unsubscribe(live)

	if err := h.post(JobEvent{Kind: "tile", Tile: 0}); err != nil {
		t.Fatal(err)
	}
	g.parked(t) // the committer counted its batch — seq 1 — and is in Sync
	for tile := 1; tile <= 2; tile++ {
		if err := h.post(JobEvent{Kind: "tile", Tile: tile}); err != nil {
			t.Fatal(err)
		}
	}
	invisible(t, h, live, 0)

	g.verdict <- nil
	g.parked(t) // second round: seqs 2 and 3, appended during the first Sync
	evs, _ := live.drain()
	if len(evs) != 1 || evs[0].Seq != 1 {
		t.Fatalf("first Sync released %+v, want exactly seq 1", evs)
	}
	invisible(t, h, live, 1)

	g.verdict <- nil
	eventually(t, "second batch released", func() bool { return h.lastSeq() == 3 })
	evs, _ = live.drain()
	if len(evs) != 2 || evs[0].Seq != 2 || evs[1].Seq != 3 || evs[1].Tile != 2 {
		t.Fatalf("second Sync released %+v, want seqs 2, 3 in order", evs)
	}

	h.close()
	onDisk, err := readHistoryFS(nil, path, "job-0001", spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) != 3 {
		t.Fatalf("journal replays %d events, want 3", len(onDisk))
	}
	for i, ev := range onDisk {
		if ev.Seq != int64(i+1) || ev.Tile != i {
			t.Fatalf("journal record %d is %+v", i, ev)
		}
	}
	if got := g.syncs.Load(); got != 2 {
		t.Fatalf("%d fsyncs for 3 events in 2 batches", got)
	}
}

// TestHubPublishWaitsForItsBatch: a state publisher returns only once
// its own event is durable and visible — committing inline when nothing
// is in flight, waiting on the committer that is otherwise.
func TestHubPublishWaitsForItsBatch(t *testing.T) {
	h, g, _, _ := gatedHub(t)
	type result struct {
		ev  JobEvent
		err error
	}
	done := make(chan result, 1)
	publish := func(state string) {
		ev, err := h.publish(JobEvent{Kind: "state", State: state})
		done <- result{ev, err}
	}
	parked := func(want int64) {
		t.Helper()
		select {
		case r := <-done:
			t.Fatalf("publish returned %+v (%v) while its Sync is parked", r.ev, r.err)
		default:
		}
		if got := h.lastSeq(); got != want {
			t.Fatalf("lastSeq %d, want %d", got, want)
		}
	}

	go publish("queued") // nothing in flight: commits inline
	g.parked(t)
	parked(0)
	g.verdict <- nil
	if r := <-done; r.err != nil || r.ev.Seq != 1 {
		t.Fatalf("inline commit returned %+v (%v)", r.ev, r.err)
	}

	if err := h.post(JobEvent{Kind: "tile"}); err != nil {
		t.Fatal(err)
	}
	g.parked(t) // a committer holds seq 2
	go publish("done")
	eventually(t, "the waiter's append", func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return len(h.pending) == 2
	})
	parked(1)
	g.verdict <- nil
	g.parked(t) // the same committer, now holding seq 3
	parked(2)
	g.verdict <- nil
	if r := <-done; r.err != nil || r.ev.Seq != 3 || h.lastSeq() != 3 {
		t.Fatalf("waiting publish returned %+v (%v), lastSeq %d", r.ev, r.err, h.lastSeq())
	}
}

// TestHubFailedSyncDropsBatch: a failed Sync releases none of its batch
// and none of what was appended behind it; the hub stays failed.
func TestHubFailedSyncDropsBatch(t *testing.T) {
	h, g, _, _ := gatedHub(t)
	live := h.subscribe(0, 64)
	defer h.unsubscribe(live)
	if err := h.post(JobEvent{Kind: "tile", Tile: 0}); err != nil {
		t.Fatal(err)
	}
	g.parked(t)
	if err := h.post(JobEvent{Kind: "tile", Tile: 1}); err != nil {
		t.Fatal(err)
	}
	g.verdict <- syscall.EIO
	eventually(t, "hub poisoned", func() bool { return h.failure() != nil })
	invisible(t, h, live, 0)
	if err := h.post(JobEvent{Kind: "tile", Tile: 2}); err == nil || !strings.Contains(err.Error(), "event journal") {
		t.Fatalf("post on a failed hub: %v", err)
	}
	if _, err := h.publish(JobEvent{Kind: "state", State: "failed"}); err == nil {
		t.Fatal("publish on a failed hub succeeded")
	}
	h.close() // must not hang on, or retry, the dead journal
	if !live.isShut() {
		t.Fatal("close did not end the live stream")
	}
	invisible(t, h, live, 0)
	if got := g.syncs.Load(); got != 1 {
		t.Fatalf("%d fsyncs reached the fd, want 1", got)
	}
}

// TestHubCloseDrains: close with a batch pending waits for it to become
// durable and visible before it releases the handle.
func TestHubCloseDrains(t *testing.T) {
	h, g, path, spec := gatedHub(t)
	if err := h.post(JobEvent{Kind: "tile", Tile: 0}); err != nil {
		t.Fatal(err)
	}
	g.parked(t)
	if err := h.post(JobEvent{Kind: "tile", Tile: 1}); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() { h.close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("close returned with a Sync parked and a batch pending")
	case <-time.After(20 * time.Millisecond):
	}
	g.verdict <- nil
	g.parked(t)
	g.verdict <- nil
	<-closed
	if h.lastSeq() != 2 {
		t.Fatalf("close released %d of 2 pending events", h.lastSeq())
	}
	h.mu.Lock()
	open := h.journal != nil || h.bg || h.syncing
	h.mu.Unlock()
	if open {
		t.Fatal("close left the journal handle or a committer behind")
	}
	evs, err := readHistoryFS(nil, path, "job-0001", spec)
	if err != nil || len(evs) != 2 {
		t.Fatalf("journal replays %d events (%v), want 2", len(evs), err)
	}
}

// TestEventJournalSyncFailureFailsJob drives the same failure through
// the daemon: the fsync covering a mid-run batch fails, the next bridged
// event finds the hub poisoned and cancels the run, and the job ends
// failed with the journal's error — not the cancellation it caused. The
// failure could not be journaled either, so a healthy restart replays
// seq-exact, requeues the job and resumes it to done.
func TestEventJournalSyncFailureFailsJob(t *testing.T) {
	lroot := testLayoutRoot(t)
	spec, err := parseSpecString(t, storageSpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(t.TempDir(), "data")
	// Sync 1 on events.log is submit's queued event; 2 is the first batch
	// of the run (the running event and whatever rode with it).
	ff := faultfs.NewFaultFS(nil, faultfs.Plan{FailSyncAt: 2, PathSubstr: "events.log"})
	m := storageManager(t, dataDir, lroot, ff)
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	fin := waitTerminal(t, m, st.ID)
	if fin.State != JobFailed || !strings.Contains(fin.Error, "event journal") || strings.Contains(fin.Error, "canceled") {
		t.Fatalf("job ended %s (%q), want failed with the event journal's error", fin.State, fin.Error)
	}
	if evs := replaySeqs(t, m, st.ID); len(evs) != 1 {
		t.Fatalf("%d events visible, want only the queued one: the failed batch was dropped", len(evs))
	}
	m.Stop()

	m2 := storageManager(t, dataDir, lroot, nil)
	defer m2.Stop()
	evs := replaySeqs(t, m2, st.ID)
	if last := evs[len(evs)-1]; last.Kind != "state" || last.State != string(JobQueued) {
		t.Fatalf("recovered stream ends with %+v, want the requeue", last)
	}
	m2.Start()
	if fin := waitTerminal(t, m2, st.ID); fin.State != JobDone {
		t.Fatalf("requeued job ended %s (%q), want done", fin.State, fin.Error)
	}
	replaySeqs(t, m2, st.ID)
}
