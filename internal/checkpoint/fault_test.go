package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"cfaopc/internal/iox"
)

// TestAppendErrorPoisons: once a write fails, the journal refuses all
// further traffic with ErrPoisoned, and the torn tail it left behind is
// truncated away by the next Open — every record accepted before the
// fault replays intact.
func TestAppendErrorPoisons(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.ckpt")
	header := []byte("hdr-v1")

	// Budget admits magic+header+two records, then tears the third.
	rec := func(i int) []byte { return []byte(fmt.Sprintf("record-%d-payload", i)) }
	full := int64(len(magic)) + int64(8+len(header))
	for i := 0; i < 2; i++ {
		full += int64(8 + len(rec(i)))
	}
	ff := iox.NewFaultFS(nil, iox.Plan{WriteBudget: full + 5})

	j, prior, err := OpenFS(ff, path, header)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(prior))
	}
	for i := 0; i < 2; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	err = j.Append(rec(2))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	if j.Err() == nil {
		t.Fatal("journal must report its poison cause")
	}
	// Poisoned: later appends and syncs fail with ErrPoisoned, not a
	// retried write.
	if err := j.Append(rec(3)); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after poison: want ErrPoisoned, got %v", err)
	}
	if err := j.Sync(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("sync after poison: want ErrPoisoned, got %v", err)
	}
	j.Close()

	// Recovery: the torn third record is dropped, the two durable ones
	// replay, and the journal appends cleanly again.
	j2, payloads, err := Open(path, header)
	if err != nil {
		t.Fatalf("reopen after ENOSPC: %v", err)
	}
	defer j2.Close()
	if len(payloads) != 2 {
		t.Fatalf("want 2 recovered records, got %d", len(payloads))
	}
	for i, p := range payloads {
		if string(p) != string(rec(i)) {
			t.Fatalf("record %d corrupted: %q", i, p)
		}
	}
	if err := j2.Append(rec(2)); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if err := j2.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncErrorPoisons: fsyncgate. A failed fsync must not be retried
// on the same fd; the journal poisons instead.
func TestSyncErrorPoisons(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.ckpt")
	header := []byte("hdr-v1")
	ff := iox.NewFaultFS(nil, iox.Plan{FailSyncAt: 1})

	j, _, err := OpenFS(ff, path, header)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append([]byte("r0")); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("want EIO, got %v", err)
	}
	if err := j.Sync(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("sync retry must hit poison, got %v", err)
	}
	if err := j.Append([]byte("r1")); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after sync failure must hit poison, got %v", err)
	}
	if got := ff.Stats().Syncs; got != 1 {
		t.Fatalf("exactly one fsync must reach the device, got %d", got)
	}
}

// TestJournalSize tracks byte growth for the daemon's storage health.
func TestJournalSize(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.ckpt")
	header := []byte("h")
	j, _, err := Open(path, header)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.Size() != st.Size() {
		t.Fatalf("Size()=%d, on disk %d", j.Size(), st.Size())
	}
	// Reopen resumes the count from the valid offset.
	j2, _, err := Open(path, header)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Size() != st.Size() {
		t.Fatalf("reopened Size()=%d, on disk %d", j2.Size(), st.Size())
	}
}

// TestStorageFaultMatrix drives the journal under the CI storage-fault
// matrix (IOFAULT=enospc|eio-sync|torn|rename). Whatever the fault, the
// invariant is one of: the append/sync reports a typed error and the
// journal poisons, or the op succeeds — and reopening the file always
// yields a clean prefix of the accepted records.
func TestStorageFaultMatrix(t *testing.T) {
	kind := os.Getenv("IOFAULT")
	if kind == "" {
		t.Skip("IOFAULT not set; run via the storage-fault matrix")
	}
	plan, err := iox.PlanForKind(kind)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "j.ckpt")
	header := []byte("matrix-hdr")
	ff := iox.NewFaultFS(nil, plan)

	j, _, err := OpenFS(ff, path, header)
	if err != nil {
		// A plan can fault journal creation itself (e.g. rename has no
		// effect here, but enospc with a tiny budget could); that is a
		// clean typed failure, not corruption.
		t.Logf("open failed cleanly under %s: %v", kind, err)
		return
	}
	var accepted [][]byte
	for i := 0; i < 50; i++ {
		payload := []byte(fmt.Sprintf("tile-%03d-0123456789abcdef0123456789abcdef", i))
		if err := j.Append(payload); err != nil {
			break
		}
		if err := j.Sync(); err != nil {
			// Durability of this record is unknown — drop it from the
			// expectation; recovery may or may not include it.
			break
		}
		accepted = append(accepted, payload)
	}
	j.Close()

	// The journal itself never renames: under the rename plan every
	// append succeeds and this is the healthy path.
	j2, payloads, err := Open(path, header)
	if err != nil {
		t.Fatalf("recovery open failed under %s: %v", kind, err)
	}
	if len(payloads) < len(accepted) {
		t.Fatalf("lost synced records: recovered %d < accepted %d", len(payloads), len(accepted))
	}
	for i, p := range payloads[:len(accepted)] {
		if string(p) != string(accepted[i]) {
			t.Fatalf("record %d corrupted under %s", i, kind)
		}
	}
	if err := j2.Append([]byte("post-recovery")); err != nil {
		t.Fatalf("journal wedged after recovery: %v", err)
	}
	j2.Close()
}

// TestTornMagicRestartsJournal: a crash that tears the very first
// write leaves a strict prefix of the magic on disk. That is a birth
// crash, not foreign data: Open restarts the file and Read sees it as
// empty.
func TestTornMagicRestartsJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.ckpt")
	header := []byte("hdr-v1")
	if err := os.WriteFile(path, []byte("CFCK"), 0o644); err != nil {
		t.Fatal(err)
	}
	if payloads, err := ReadFS(nil, path, header); err != nil || len(payloads) != 0 {
		t.Fatalf("Read on torn magic: %v, %d payloads", err, len(payloads))
	}
	j, payloads, err := Open(path, header)
	if err != nil {
		t.Fatalf("Open refused a torn-magic birth crash: %v", err)
	}
	if len(payloads) != 0 {
		t.Fatalf("torn-magic journal replayed %d payloads", len(payloads))
	}
	if err := j.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	got, err := ReadFS(nil, path, header)
	if err != nil || len(got) != 1 || string(got[0]) != "first" {
		t.Fatalf("restarted journal did not round-trip: %v, %q", err, got)
	}
	// Genuinely foreign data is still refused.
	bad := filepath.Join(t.TempDir(), "foreign.ckpt")
	if err := os.WriteFile(bad, []byte("GIF89a"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(bad, header); err == nil {
		t.Fatal("Open accepted foreign data")
	}
}
