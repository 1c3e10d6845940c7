package flow

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"cfaopc/internal/geom"
)

func shotsEqual(a, b []geom.Circle) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// eventLog is a race-safe EventSink that records the stream.
type eventLog struct {
	mu  sync.Mutex
	evs []Event
}

func (l *eventLog) sink() EventSink {
	return func(ev Event) {
		l.mu.Lock()
		l.evs = append(l.evs, ev)
		l.mu.Unlock()
	}
}

func (l *eventLog) snapshot() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.evs...)
}

// TestEventsStream verifies the subscriber contract: every planned tile
// emits exactly one EventTile, occupied tiles emit their heartbeats
// before their completion, and attaching a sink does not perturb the
// result.
func TestEventsStream(t *testing.T) {
	l := bigLayout()
	cfg := testConfig()
	cfg.Optimize = circleOptimizer(2)
	ref, err := RunContext(context.Background(), l, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var log eventLog
	cfg.Events = log.sink()
	cfg.TileWorkers = 4
	res, err := RunContext(context.Background(), l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !shotsEqual(ref.Shots, res.Shots) {
		t.Fatal("attaching an event sink changed the shots")
	}

	evs := log.snapshot()
	tileEvents := map[int]int{}
	beats := map[int]int{}
	beatAfterTile := false
	for _, ev := range evs {
		switch ev.Kind {
		case EventTile:
			if ev.Stat == nil {
				t.Fatal("EventTile without a stat")
			}
			if ev.Stat.Index != ev.Tile {
				t.Fatalf("tile event index mismatch: %d vs %d", ev.Stat.Index, ev.Tile)
			}
			tileEvents[ev.Tile]++
		case EventBeat:
			if tileEvents[ev.Tile] > 0 {
				beatAfterTile = true
			}
			beats[ev.Tile]++
		}
	}
	if len(tileEvents) != res.Tiles {
		t.Fatalf("tile events for %d tiles, want %d", len(tileEvents), res.Tiles)
	}
	for idx, n := range tileEvents {
		if n != 1 {
			t.Fatalf("tile %d emitted %d completions", idx, n)
		}
	}
	for _, ts := range res.TileStats {
		if ts.Occupied && beats[ts.Index] == 0 {
			t.Fatalf("occupied tile %d emitted no heartbeats", ts.Index)
		}
		if beats[ts.Index] != ts.Iters {
			t.Fatalf("tile %d: %d beat events, stat says %d iters", ts.Index, beats[ts.Index], ts.Iters)
		}
	}
	if beatAfterTile {
		t.Fatal("a heartbeat arrived after its tile's completion event")
	}
}

// TestEventsResumedTiles verifies a resumed run re-emits completions
// for journal-replayed tiles, marked Resumed, before fresh work starts.
func TestEventsResumedTiles(t *testing.T) {
	l := bigLayout()
	cfg := testConfig()
	cfg.Optimize = circleOptimizer(2)
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := RunContext(context.Background(), l, cfg); err != nil {
		t.Fatal(err)
	}

	var log eventLog
	cfg.Events = log.sink()
	res, err := RunContext(context.Background(), l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != res.Tiles {
		t.Fatalf("resumed %d of %d tiles", res.Resumed, res.Tiles)
	}
	evs := log.snapshot()
	seen := map[int]bool{}
	for _, ev := range evs {
		if ev.Kind != EventTile {
			t.Fatalf("resumed run emitted %s event", ev.Kind)
		}
		if !ev.Stat.Resumed {
			t.Fatalf("tile %d completion not marked Resumed", ev.Tile)
		}
		seen[ev.Tile] = true
	}
	if len(seen) != res.Tiles {
		t.Fatalf("resumed completions for %d tiles, want %d", len(seen), res.Tiles)
	}
}
