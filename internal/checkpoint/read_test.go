package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestReadReplaysWithoutDisturbing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	hdr := []byte("read-h")
	j, _ := open(t, path, hdr)
	want := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	for _, p := range want {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	// Read while the append handle is still open: the observer contract.
	recs, err := ReadFS(nil, path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("read %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, recs[i], want[i])
		}
	}
	// The appender must still work after an interleaved Read.
	if err := j.Append([]byte("dddd")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if recs, err = ReadFS(nil, path, hdr); err != nil || len(recs) != 4 {
		t.Fatalf("after close: %d records, err %v", len(recs), err)
	}
}

func TestReadHeaderMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, _ := open(t, path, []byte("fp-A"))
	j.Append([]byte("x"))
	j.Close()
	if _, err := ReadFS(nil, path, []byte("fp-B")); !errors.Is(err, ErrHeaderMismatch) {
		t.Fatalf("err = %v, want ErrHeaderMismatch", err)
	}
}

func TestReadTornTailLeftInPlace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	hdr := []byte("h")
	j, _ := open(t, path, hdr)
	j.Append([]byte("committed"))
	j.Append([]byte("doomed-record"))
	j.Close()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record: Read must drop it but NOT shrink the file —
	// repair belongs to the appender (Open), not the observer.
	if err := os.Truncate(path, st.Size()-4); err != nil {
		t.Fatal(err)
	}
	torn, _ := os.Stat(path)
	recs, err := ReadFS(nil, path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0]) != "committed" {
		t.Fatalf("records = %q, want [committed]", recs)
	}
	after, _ := os.Stat(path)
	if after.Size() != torn.Size() {
		t.Fatalf("Read changed the file size: %d -> %d", torn.Size(), after.Size())
	}
}

func TestReadHeaderlessJournalIsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	// Magic only — the creator died before the header record landed.
	if err := os.WriteFile(path, []byte("CFCKPT1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadFS(nil, path, []byte("h"))
	if err != nil || len(recs) != 0 {
		t.Fatalf("recs = %v, err = %v; want empty, nil", recs, err)
	}
}

func TestReadMissingFile(t *testing.T) {
	if _, err := ReadFS(nil, filepath.Join(t.TempDir(), "absent"), []byte("h")); err == nil {
		t.Fatal("missing file read as success")
	}
}

// TestReadStoredReturnsTheHeader: ReadStoredFS hands back whatever header
// the journal holds beside its payloads, nil for a journal torn inside its
// header (a birth crash), and still refuses mid-file rot.
func TestReadStoredReturnsTheHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, _ := open(t, path, []byte("whose-journal"))
	j.Append([]byte("a"))
	j.Append([]byte("bb"))
	j.Close()
	hdr, recs, err := ReadStoredFS(nil, path)
	if err != nil || string(hdr) != "whose-journal" || len(recs) != 2 || string(recs[1]) != "bb" {
		t.Fatalf("header %q, %d records, err %v", hdr, len(recs), err)
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(magic)+9] ^= 0xff // inside the header record, records follow
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadStoredFS(nil, path); err == nil {
		t.Fatal("mid-file rot read as a journal")
	}

	born := filepath.Join(t.TempDir(), "born.ckpt")
	j, _ = open(t, born, []byte("whose-journal"))
	j.Close()
	if err := os.Truncate(born, int64(len(magic))+5); err != nil {
		t.Fatal(err)
	}
	if hdr, recs, err := ReadStoredFS(nil, born); hdr != nil || recs != nil || err != nil {
		t.Fatalf("torn header read as %q, %d records, err %v", hdr, len(recs), err)
	}
}
