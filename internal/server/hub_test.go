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

// TestHubSlowConsumerDropsOldest pins the backpressure contract: a
// consumer that never drains loses its oldest events (counted), keeps
// the newest, and the publisher never blocks.
func TestHubSlowConsumerDropsOldest(t *testing.T) {
	h, _, _ := testHub(t)
	sub := h.subscribe(0, 4)
	defer h.unsubscribe(sub)
	for i := 0; i < 100; i++ {
		h.publish(JobEvent{Kind: "beat", Tile: i})
	}
	evs, dropped := sub.drain()
	if dropped != 96 {
		t.Fatalf("dropped %d, want 96", dropped)
	}
	if len(evs) != 4 {
		t.Fatalf("buffered %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(97 + i); ev.Seq != want {
			t.Fatalf("kept seq %d at %d, want %d (newest survive)", ev.Seq, i, want)
		}
	}
	if evs2, d2 := sub.drain(); len(evs2) != 0 || d2 != 0 {
		t.Fatalf("second drain returned %d events, %d dropped", len(evs2), d2)
	}
}

func TestHubReplaySince(t *testing.T) {
	h, _, _ := testHub(t)
	for i := 0; i < 10; i++ {
		h.publish(JobEvent{Kind: "beat", Tile: i})
	}
	sub := h.subscribe(4, 64)
	defer h.unsubscribe(sub)
	evs, _ := sub.drain()
	if len(evs) != 6 || evs[0].Seq != 5 || evs[5].Seq != 10 {
		t.Fatalf("replay since 4: got %d events, first %d", len(evs), evs[0].Seq)
	}
	h.publish(JobEvent{Kind: "tile", Tile: 0})
	evs, _ = sub.drain()
	if len(evs) != 1 || evs[0].Seq != 11 {
		t.Fatalf("live event after replay: %+v", evs)
	}
}

// TestHubReplayExceedsRingCap: the initial replay must deliver the
// whole backlog even when it is larger than the subscriber's live
// ring.
func TestHubReplayExceedsRingCap(t *testing.T) {
	h, _, _ := testHub(t)
	for i := 0; i < 50; i++ {
		h.publish(JobEvent{Kind: "beat", Tile: i})
	}
	sub := h.subscribe(0, 4)
	defer h.unsubscribe(sub)
	evs, dropped := sub.drain()
	if dropped != 0 || len(evs) != 50 {
		t.Fatalf("replay: %d events, %d dropped; want all 50, none dropped", len(evs), dropped)
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
	sub := h2.subscribe(0, 64)
	defer h2.unsubscribe(sub)
	evs, _ := sub.drain()
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
// subscribers that keep dropping the connection and reconnecting with
// the last seq they saw, and checks each still observes the whole
// stream, gap-free and duplicate-free. Run under -race this is also the
// locking proof.
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
				// A buffer big enough to never drop; each connection reads
				// one doorbell's worth, then reconnects with Last-Event-ID.
				sub := h.subscribe(last, total+1)
				<-sub.wait()
				evs, dropped := sub.drain()
				h.unsubscribe(sub)
				if dropped != 0 {
					t.Errorf("dropped %d with an oversized buffer", dropped)
					return
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

// TestHubManySubscribersIndependent: each subscriber has its own ring;
// one slow consumer must not affect another.
func TestHubManySubscribersIndependent(t *testing.T) {
	h, _, _ := testHub(t)
	slow := h.subscribe(0, 2)
	fast := h.subscribe(0, 128)
	defer h.unsubscribe(slow)
	defer h.unsubscribe(fast)
	for i := 0; i < 20; i++ {
		h.publish(JobEvent{Kind: "beat", Tile: i})
	}
	fastEvs, fastDropped := fast.drain()
	slowEvs, slowDropped := slow.drain()
	if fastDropped != 0 || len(fastEvs) != 20 {
		t.Fatalf("fast consumer: %d events, %d dropped", len(fastEvs), fastDropped)
	}
	if slowDropped != 18 || len(slowEvs) != 2 {
		t.Fatalf("slow consumer: %d events, %d dropped", len(slowEvs), slowDropped)
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
