package server

import (
	"path/filepath"
	"sync"
	"testing"

	"cfaopc/internal/checkpoint"
	"cfaopc/internal/iox"
)

// readHistoryFS replays a job's event journal without taking the append
// handle.
func readHistoryFS(fsys iox.FS, path, jobID string, spec *JobSpec) ([]JobEvent, error) {
	payloads, err := checkpoint.ReadFS(fsys, path, eventJournalHeader(jobID, spec))
	if err != nil {
		return nil, err
	}
	return decodeEvents(payloads)
}

// cursor is a test's reader of a job's stream, the way serveEvents reads
// it: the events after the last seq it took. Subscribe, Unsubscribe,
// drain, wait and isShut keep the spelling the daemon tests were written
// in; a cursor holds nothing in the hub, so there is nothing to free and
// nothing is ever dropped.
type cursor struct {
	h    *hub
	last int64
	grew <-chan struct{}
}

func (m *Manager) Subscribe(id string, since int64, _ int) (*cursor, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrNoJob
	}
	_, _, grew := j.hub.since(since)
	return &cursor{h: j.hub, last: since, grew: grew}, nil
}

func (m *Manager) Unsubscribe(string, *cursor) {}

// drain takes every event after the cursor; the dropped count is always 0.
func (c *cursor) drain() ([]JobEvent, int64) {
	evs, _, grew := c.h.since(c.last)
	if len(evs) > 0 {
		c.last = evs[len(evs)-1].Seq
	}
	c.grew = grew
	return evs, 0
}

// wait is closed once there is more than the last drain saw.
func (c *cursor) wait() <-chan struct{} { return c.grew }

func (c *cursor) isShut() bool {
	_, ended, _ := c.h.since(c.last)
	return ended
}

func testHub(t *testing.T) (*hub, string, *JobSpec) {
	t.Helper()
	spec, err := parseSpecString(t, `{"case":1}`)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "events.log")
	h, err := newHubFS(nil, path, "job-0001", spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.close)
	return h, path, spec
}

// TestHubSlowReaderMissesNothing: a reader that takes nothing while a
// hundred events are published gets all of them, in order, on its first
// read, and the publisher never waited for it.
func TestHubSlowReaderMissesNothing(t *testing.T) {
	h, _, _ := testHub(t)
	_, _, grew := h.since(0)
	for i := 0; i < 100; i++ {
		h.publish(JobEvent{Kind: "beat", Tile: i})
	}
	select {
	case <-grew:
	default:
		t.Fatal("grew still open after 100 releases")
	}
	evs, ended, _ := h.since(0)
	if ended || len(evs) != 100 {
		t.Fatalf("read %d events (ended %v), want all 100 of a live stream", len(evs), ended)
	}
	for i, ev := range evs {
		if ev.Seq != int64(i+1) || ev.Tile != i {
			t.Fatalf("position %d holds %+v", i, ev)
		}
	}
	if rest, _, _ := h.since(100); len(rest) != 0 {
		t.Fatalf("read %d events past the newest", len(rest))
	}
}

func TestHubReplaySince(t *testing.T) {
	h, _, _ := testHub(t)
	for i := 0; i < 10; i++ {
		h.publish(JobEvent{Kind: "beat", Tile: i})
	}
	evs, _, _ := h.since(4)
	if len(evs) != 6 || evs[0].Seq != 5 || evs[5].Seq != 10 {
		t.Fatalf("replay since 4: got %d events, first %d", len(evs), evs[0].Seq)
	}
	h.publish(JobEvent{Kind: "tile", Tile: 0})
	evs, _, _ = h.since(evs[5].Seq)
	if len(evs) != 1 || evs[0].Seq != 11 {
		t.Fatalf("live event after replay: %+v", evs)
	}
}

// TestHubRestartContinuesSeq reopens the journal as a crashed-and-
// restarted daemon would and checks the stream picks up where it
// stopped.
func TestHubRestartContinuesSeq(t *testing.T) {
	spec, err := parseSpecString(t, `{"case":1}`)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "events.log")
	h1, err := newHubFS(nil, path, "job-0001", spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		h1.publish(JobEvent{Kind: "beat", Tile: i})
	}
	h1.close()

	h2, err := newHubFS(nil, path, "job-0001", spec)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.close()
	if h2.lastSeq() != 5 {
		t.Fatalf("restarted hub lastSeq %d, want 5", h2.lastSeq())
	}
	ev, err := h2.publish(JobEvent{Kind: "state", State: "running"})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 6 {
		t.Fatalf("first post-restart event seq %d, want 6", ev.Seq)
	}
	evs, _, _ := h2.since(0)
	if len(evs) != 6 {
		t.Fatalf("full replay after restart: %d events, want 6", len(evs))
	}
	for i, e := range evs {
		if e.Seq != int64(i+1) {
			t.Fatalf("seq %d at position %d: history not contiguous", e.Seq, i)
		}
	}
}

// TestHubJournalBindsJobIdentity: a journal can never be replayed
// under a different job ID or spec.
func TestHubJournalBindsJobIdentity(t *testing.T) {
	spec, _ := parseSpecString(t, `{"case":1}`)
	other, _ := parseSpecString(t, `{"case":2}`)
	path := filepath.Join(t.TempDir(), "events.log")
	h, err := newHubFS(nil, path, "job-0001", spec)
	if err != nil {
		t.Fatal(err)
	}
	h.publish(JobEvent{Kind: "state", State: "queued"})
	h.close()
	if _, err := newHubFS(nil, path, "job-0002", spec); err == nil {
		t.Fatal("journal accepted under a different job ID")
	}
	if _, err := newHubFS(nil, path, "job-0001", other); err == nil {
		t.Fatal("journal accepted under a different spec")
	}
	if _, err := readHistoryFS(nil, path, "job-0002", spec); err == nil {
		t.Fatal("readHistory accepted a different job ID")
	}
}

func TestHubReadHistoryMatchesHub(t *testing.T) {
	h, path, spec := testHub(t)
	for i := 0; i < 7; i++ {
		h.publish(JobEvent{Kind: "beat", Tile: i, Iter: i})
	}
	h.close()
	evs, err := readHistoryFS(nil, path, "job-0001", spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 7 {
		t.Fatalf("readHistory: %d events, want 7", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != int64(i+1) || ev.Tile != i {
			t.Fatalf("record %d: %+v", i, ev)
		}
	}
}

// TestHubConcurrentPublishSubscribe races four publishers — two that
// wait for their batch, two that post like the flow bridge — against two
// readers that take one wake-up's worth of events at a time and carry on
// from the last seq they saw, and checks each observes the whole stream,
// gap-free and duplicate-free. Run under -race this is also the locking
// proof.
func TestHubConcurrentPublishSubscribe(t *testing.T) {
	h, _, _ := testHub(t)
	const publishers, perPublisher = 4, 50
	total := publishers * perPublisher

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				if p%2 == 0 {
					h.publish(JobEvent{Kind: "beat", Tile: p})
				} else {
					h.post(JobEvent{Kind: "beat", Tile: p})
				}
			}
		}(p)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64
			for last < int64(total) {
				evs, _, grew := h.since(last)
				if len(evs) == 0 {
					<-grew
					continue
				}
				for _, ev := range evs {
					if ev.Seq != last+1 {
						t.Errorf("seq gap or duplicate: %d then %d", last, ev.Seq)
						return
					}
					last = ev.Seq
				}
			}
		}()
	}
	wg.Wait()
	if h.lastSeq() != int64(total) {
		t.Fatalf("hub lastSeq %d, want %d", h.lastSeq(), total)
	}
}

// TestHubCursorsIndependent: two readers at different seqs of one
// stream each get exactly what follows their own cursor, before and after
// more events arrive, and reading moves neither the other nor the hub.
func TestHubCursorsIndependent(t *testing.T) {
	h, _, _ := testHub(t)
	for i := 0; i < 20; i++ {
		h.publish(JobEvent{Kind: "beat", Tile: i})
	}
	behind, _, _ := h.since(3)
	ahead, _, _ := h.since(18)
	if len(behind) != 17 || behind[0].Seq != 4 || len(ahead) != 2 || ahead[0].Seq != 19 {
		t.Fatalf("cursors at 3 and 18 read %d from %d and %d from %d", len(behind), behind[0].Seq, len(ahead), ahead[0].Seq)
	}
	h.publish(JobEvent{Kind: "tile", Tile: 20})
	if evs, _, _ := h.since(20); len(evs) != 1 || evs[0].Seq != 21 {
		t.Fatalf("the cursor at 20 read %+v, want seq 21 alone", evs)
	}
	if evs, _, _ := h.since(3); len(evs) != 18 || evs[17].Seq != 21 {
		t.Fatalf("the cursor at 3 read %d events, want 18 ending at seq 21", len(evs))
	}
	if h.lastSeq() != 21 {
		t.Fatalf("reads moved the hub: lastSeq %d", h.lastSeq())
	}
}

// TestHubSeqNeverRegresses exercises several close/reopen cycles, the
// pattern of a job resumed across many daemon lives.
func TestHubSeqNeverRegresses(t *testing.T) {
	spec, _ := parseSpecString(t, `{"case":1}`)
	path := filepath.Join(t.TempDir(), "events.log")
	var last int64
	for life := 0; life < 4; life++ {
		h, err := newHubFS(nil, path, "job-0001", spec)
		if err != nil {
			t.Fatalf("life %d: %v", life, err)
		}
		if h.lastSeq() != last {
			t.Fatalf("life %d starts at seq %d, want %d", life, h.lastSeq(), last)
		}
		for i := 0; i < 3; i++ {
			ev, err := h.publish(JobEvent{Kind: "beat", Tile: life, Iter: i})
			if err != nil {
				t.Fatal(err)
			}
			if ev.Seq != last+1 {
				t.Fatalf("life %d: seq %d, want %d", life, ev.Seq, last+1)
			}
			last = ev.Seq
		}
		h.close()
	}
	evs, err := readHistoryFS(nil, path, "job-0001", spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 12 {
		t.Fatalf("final history %d events, want 12", len(evs))
	}
}
