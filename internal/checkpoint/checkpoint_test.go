package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func open(t *testing.T, path string, header []byte) (*Journal, [][]byte) {
	t.Helper()
	j, recs, err := Open(path, header)
	if err != nil {
		t.Fatal(err)
	}
	return j, recs
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	hdr := []byte("fingerprint-v1")
	j, recs := open(t, path, hdr)
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := [][]byte{[]byte("tile-0"), []byte("tile-7"), {}, []byte("tile-3")}
	for _, p := range want {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs := open(t, path, hdr)
	defer j2.Close()
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, recs[i], want[i])
		}
	}
}

func TestAppendAfterResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	hdr := []byte("h")
	j, _ := open(t, path, hdr)
	j.Append([]byte("a"))
	j.Close()

	j, recs := open(t, path, hdr)
	if len(recs) != 1 {
		t.Fatalf("replayed %d", len(recs))
	}
	j.Append([]byte("b"))
	j.Close()

	j, recs = open(t, path, hdr)
	defer j.Close()
	if len(recs) != 2 || string(recs[0]) != "a" || string(recs[1]) != "b" {
		t.Fatalf("replayed %q", recs)
	}
}

func TestHeaderMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, _ := open(t, path, []byte("config-A"))
	j.Append([]byte("tile"))
	j.Close()
	if _, _, err := Open(path, []byte("config-B")); !errors.Is(err, ErrHeaderMismatch) {
		t.Fatalf("err = %v, want ErrHeaderMismatch", err)
	}
}

// TestTornTail cuts the file at every possible byte boundary inside the
// final record and verifies the journal always reopens with exactly the
// records before it, then accepts new appends.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.ckpt")
	hdr := []byte("h")
	j, _ := open(t, base, hdr)
	j.Append([]byte("first-record"))
	j.Close()
	whole, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	intactLen := len(whole)

	j, _ = open(t, base, hdr)
	j.Append([]byte("the-torn-one"))
	j.Close()
	full, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}

	for cut := intactLen + 1; cut < len(full); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut%d.ckpt", cut))
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs := open(t, path, hdr)
		if len(recs) != 1 || string(recs[0]) != "first-record" {
			t.Fatalf("cut %d: replayed %q", cut, recs)
		}
		if err := j.Append([]byte("after-resume")); err != nil {
			t.Fatal(err)
		}
		j.Close()
		j, recs = open(t, path, hdr)
		if len(recs) != 2 || string(recs[1]) != "after-resume" {
			t.Fatalf("cut %d after append: replayed %q", cut, recs)
		}
		j.Close()
	}
}

// TestTornHeader covers a process that died between the magic and the
// header record: the journal restarts cleanly.
func TestTornHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.WriteFile(path, magic, 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs := open(t, path, []byte("h"))
	if len(recs) != 0 {
		t.Fatalf("replayed %d records from header-only journal", len(recs))
	}
	j.Append([]byte("x"))
	j.Close()
	j, recs = open(t, path, []byte("h"))
	defer j.Close()
	if len(recs) != 1 || string(recs[0]) != "x" {
		t.Fatalf("replayed %q", recs)
	}
}

func TestBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, []byte("h")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestMidFileCorruption flips a byte inside an interior record; that is
// disk rot, not a torn write, and must be reported, not skipped.
func TestMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	hdr := []byte("h")
	j, _ := open(t, path, hdr)
	j.Append([]byte("record-one"))
	j.Append([]byte("record-two"))
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of record-one: magic + header record (8+1) +
	// record header (8) puts record-one's payload at this offset.
	off := len(magic) + 8 + len(hdr) + 8
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, hdr); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	hdr := []byte("h")
	j, _ := open(t, path, hdr)
	var wg sync.WaitGroup
	const n = 64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := j.Append([]byte(fmt.Sprintf("rec-%02d", i))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	j.Close()
	j, recs := open(t, path, hdr)
	defer j.Close()
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
	seen := map[string]bool{}
	for _, r := range recs {
		seen[string(r)] = true
	}
	if len(seen) != n {
		t.Fatalf("only %d distinct records", len(seen))
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
