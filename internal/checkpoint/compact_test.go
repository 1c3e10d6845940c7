package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// firstByteKey treats a payload's first byte as its supersession key —
// enough structure to exercise last-wins semantics without gob.
func firstByteKey(p []byte) (string, error) {
	if len(p) == 0 {
		return "", fmt.Errorf("empty payload")
	}
	return string(p[:1]), nil
}

func TestCompactDropsSuperseded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	hdr := []byte("fp")
	j, _ := open(t, path, hdr)
	appends := [][]byte{
		[]byte("a-partial-1"),
		[]byte("b-partial-1"),
		[]byte("a-partial-2"),
		[]byte("c-done"),
		[]byte("a-done"), // supersedes both a-partials
	}
	for _, p := range appends {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	before, _ := os.Stat(path)

	stats, err := CompactFS(nil, path, hdr, firstByteKey)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Kept != 3 || stats.Dropped != 2 {
		t.Fatalf("stats = %+v, want kept 3 dropped 2", stats)
	}
	if stats.BytesBefore != before.Size() || stats.BytesAfter >= stats.BytesBefore {
		t.Fatalf("byte accounting %+v (file was %d)", stats, before.Size())
	}

	// Replay order: first appearance of each surviving key, last record
	// per key — exactly what Open's last-wins replay would compute.
	j2, recs := open(t, path, hdr)
	defer j2.Close()
	want := [][]byte{[]byte("a-done"), []byte("b-partial-1"), []byte("c-done")}
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, recs[i], want[i])
		}
	}
}

func TestCompactIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	hdr := []byte("fp")
	j, _ := open(t, path, hdr)
	j.Append([]byte("a1"))
	j.Append([]byte("b1"))
	j.Append([]byte("a2"))
	j.Close()

	if _, err := CompactFS(nil, path, hdr, firstByteKey); err != nil {
		t.Fatal(err)
	}
	first, _ := os.ReadFile(path)
	stats, err := CompactFS(nil, path, hdr, firstByteKey)
	if err != nil {
		t.Fatal(err)
	}
	second, _ := os.ReadFile(path)
	if stats.Dropped != 0 || !bytes.Equal(first, second) {
		t.Fatalf("second compaction changed the journal (stats %+v)", stats)
	}
}

func TestCompactHeaderMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, _ := open(t, path, []byte("fp-A"))
	j.Append([]byte("a"))
	j.Close()
	if _, err := CompactFS(nil, path, []byte("fp-B"), firstByteKey); !errors.Is(err, ErrHeaderMismatch) {
		t.Fatalf("err = %v, want ErrHeaderMismatch", err)
	}
	// The failed compaction must leave the journal readable and intact.
	j2, recs := open(t, path, []byte("fp-A"))
	j2.Close()
	if len(recs) != 1 || string(recs[0]) != "a" {
		t.Fatalf("failed compact damaged the journal: %q", recs)
	}
}

func TestCompactKeyErrorLeavesJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	hdr := []byte("fp")
	j, _ := open(t, path, hdr)
	j.Append([]byte("a"))
	j.Append([]byte{}) // firstByteKey rejects this
	j.Close()
	orig, _ := os.ReadFile(path)

	if _, err := CompactFS(nil, path, hdr, firstByteKey); err == nil || !strings.Contains(err.Error(), "empty payload") {
		t.Fatalf("err = %v, want keyOf failure", err)
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(orig, after) {
		t.Fatal("aborted compaction mutated the journal")
	}
	if entries, _ := os.ReadDir(filepath.Dir(path)); len(entries) != 1 {
		t.Fatalf("temp file left behind: %v", entries)
	}
}

func TestCompactDropsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	hdr := []byte("fp")
	j, _ := open(t, path, hdr)
	j.Append([]byte("a"))
	j.Close()
	// Simulate a crash mid-append: a dangling half-record at the tail.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.Write([]byte{0, 0, 0, 9, 1, 2})
	f.Close()

	stats, err := CompactFS(nil, path, hdr, firstByteKey)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Kept != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	j2, recs := open(t, path, hdr)
	defer j2.Close()
	if len(recs) != 1 || string(recs[0]) != "a" {
		t.Fatalf("post-compact replay = %q", recs)
	}
}

func TestCompactMissingJournal(t *testing.T) {
	if _, err := CompactFS(nil, filepath.Join(t.TempDir(), "absent.ckpt"), []byte("fp"), firstByteKey); err == nil {
		t.Fatal("compacted a journal that does not exist")
	}
}

func TestCompactTmpPathBlocked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	hdr := []byte("fp")
	j, _ := open(t, path, hdr)
	j.Append([]byte("a"))
	j.Close()
	orig, _ := os.ReadFile(path)
	// A directory squatting on the temp path: the rewrite must fail
	// cleanly and leave the journal untouched.
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := CompactFS(nil, path, hdr, firstByteKey); err == nil {
		t.Fatal("compaction succeeded with its temp path blocked")
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(orig, after) {
		t.Fatal("failed compaction mutated the journal")
	}
}

func TestSyncFlushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	hdr := []byte("fp")
	j, _ := open(t, path, hdr)
	defer j.Close()
	if err := j.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	// Synced bytes are visible to an independent reader immediately.
	j2, recs := open(t, path, hdr)
	j2.Close()
	if len(recs) != 1 || string(recs[0]) != "a" {
		t.Fatalf("post-sync replay = %q", recs)
	}
}
