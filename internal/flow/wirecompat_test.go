package flow

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cfaopc/internal/checkpoint"
	"cfaopc/internal/geom"
	"cfaopc/internal/procpool"
	"cfaopc/internal/quarantine"
)

// The files under testdata/parent were written by the commit before
// flow.Fault and flow.AttemptOutcome became aliases of quarantine.Fault
// and procpool.Outcome: a 2×2 CircleRule run over quadLayout (grid 128,
// core 64, halo 16, one retry, radii 0.5–40 px) with tile 1 failing once
// (NaN) and tile 3 failing every attempt, its journal and tile 3's
// quarantine bundle; plus one task frame and one reply frame. gob keys
// by field name and the surviving declarations are the ones that were
// on the wire, so every byte must still decode to the same values —
// journal header, protocol version and bundle format did not move. The
// bundle and the task frame also carry the fault script their tile ran
// under, from when bundles and tasks had a field for one: gob drops it
// on decode, so neither replays it.
const parentJournalHeader = "cfaopc-flow-v4 e56c04a1be7c49a5"

func parentFile(name string) string { return filepath.Join("testdata", "parent", name) }

func TestParentJournalDecodes(t *testing.T) {
	payloads, err := checkpoint.ReadFS(nil, parentFile("journal.ckpt"), []byte(parentJournalHeader))
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 4 {
		t.Fatalf("%d records, want one per tile", len(payloads))
	}
	shots := 0
	for _, p := range payloads {
		rec, err := decodeRecord(p)
		if err != nil || rec.Tile == nil {
			t.Fatalf("record: %v (%+v)", err, rec)
		}
		st := rec.Tile.Stat
		shots += len(rec.Tile.Shots)
		switch st.Index {
		case 1:
			if st.Path != PathPrimary || st.Attempts != 2 ||
				st.Failure != "attempt 0 (primary): invalid output: mask has NaN/Inf pixels" {
				t.Errorf("tile 1 stat: %+v", st)
			}
		case 3:
			if st.Path != PathEmpty || st.Attempts != 3 || st.Shots != 0 {
				t.Errorf("tile 3 stat: %+v", st)
			}
		default:
			if st.Path != PathPrimary || st.Attempts != 1 || st.Shots != 5 {
				t.Errorf("tile %d stat: %+v", st.Index, st)
			}
		}
	}
	if shots != 15 {
		t.Errorf("journal holds %d shots, want 15", shots)
	}

	// The journal of a parent run SIGKILLed under -partial-every 5 (the
	// repository's testdata/parent/partial_v3.ckpt: case 7, grid 512, core
	// 128, CircleOpt, numerics v3): tiles 0-3 finished, each behind its 11
	// mid-tile snapshots, and 6 live snapshots of tile 4. Every record
	// decodes; replay keeps the tiles and skips the snapshots.
	payloads, err = checkpoint.ReadFS(nil, filepath.Join("..", "..", "testdata", "parent", "partial_v3.ckpt"),
		[]byte("cfaopc-flow-v4 6d453c470cfec9ad"))
	if err != nil {
		t.Fatal(err)
	}
	snapshots := 0
	for _, p := range payloads {
		rec, err := decodeRecord(p)
		if err != nil {
			t.Fatalf("record: %v", err)
		}
		if rec.Partial != nil {
			snapshots++
		}
	}
	tiles, err := decodeJournal(payloads, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 43 || snapshots != 39 || len(tiles) != 4 {
		t.Fatalf("%d records, %d snapshots, %d tiles replayed; want 43, 39, 4", len(payloads), snapshots, len(tiles))
	}
	for i, rec := range tiles {
		if rec.Stat.Index != i || rec.Stat.Path != PathPrimary && rec.Stat.Occupied {
			t.Errorf("replayed tile %d: %+v", i, rec.Stat)
		}
	}
}

func TestParentBundleDecodesAndReproduces(t *testing.T) {
	b, err := quarantine.Load(parentFile("tile0003.qrb"))
	if err != nil {
		t.Fatal(err)
	}
	if b.FormatVersion != quarantine.FormatVersion || b.Fingerprint != parentJournalHeader {
		t.Fatalf("bundle v%d fingerprint %q", b.FormatVersion, b.Fingerprint)
	}
	if len(b.Attempts) != 3 {
		t.Fatalf("recorded attempts: %+v", b.Attempts)
	}
	task := &procpool.Task{Bundle: *b}

	// The recorded script is ignored: served as a task, the window the
	// parent's rule engine failed on only under that script succeeds.
	reply := ServeTask(context.Background(), task, ruleFallback(), ruleFallback(), nil)
	if reply.Err != "" || reply.Path != PathPrimary || len(reply.Outcomes) != 1 || len(reply.Shots) == 0 {
		t.Fatalf("reply without the script: %+v", reply)
	}

	// The script, wrapped around the optimizers as the parent's harness
	// did, walks the ladder the bundle recorded.
	faulted := InjectFaults(ruleFallback(), FaultPlan{3: {
		{Panic: true}, {Sleep: time.Millisecond, BeatEvery: time.Millisecond, BadRadius: true}, {Panic: true},
	}})
	reply = ServeTask(context.Background(), task, faulted, faulted, nil)
	if reply.Err != "" || reply.Path != PathEmpty || len(reply.Outcomes) != len(b.Attempts) {
		t.Fatalf("reply: %+v", reply)
	}
	for i, o := range reply.Outcomes {
		if rec := b.Attempts[i]; o.Attempt != rec.Index || o.Engine != rec.Engine || o.Err != rec.Err {
			t.Errorf("attempt %d: replayed %+v, recorded %+v", i, o, rec)
		}
	}
}

func TestParentFramesDecode(t *testing.T) {
	read := func(name string) *procpool.Message {
		t.Helper()
		raw, err := os.ReadFile(parentFile(name))
		if err != nil {
			t.Fatal(err)
		}
		m, err := procpool.ReadMessage(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	// The task's recorded script stalled attempt 0 and failed attempt 1
	// every way at once; it is ignored, so the window is served clean.
	task := read("task.frame").Task
	if task == nil || task.Dispatch != 2 {
		t.Fatalf("task frame: %+v", task)
	}
	if err := task.Bundle.ValidateTask(); err != nil {
		t.Fatal(err)
	}
	if r := ServeTask(context.Background(), task, ruleFallback(), nil, nil); r.Err != "" || r.Path != PathPrimary || len(r.Outcomes) != 1 {
		t.Fatalf("task frame served: %+v", r)
	}

	reply := read("reply.frame").Reply
	want := procpool.Reply{Index: 3, Path: PathFallback,
		Shots: []geom.Circle{{X: 1, Y: 2, R: 3}, {X: 4.5, Y: 5.5, R: 6.5}},
		Outcomes: []AttemptOutcome{
			{Attempt: 0, Engine: "primary", Err: "panic: boom", Iters: 3, LastLoss: 1.5, Stalled: true},
			{Attempt: 2, Engine: "fallback"},
		}}
	if reply == nil || !reflect.DeepEqual(*reply, want) {
		t.Fatalf("reply frame: %+v", reply)
	}
}
