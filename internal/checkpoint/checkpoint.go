// Package checkpoint implements the append-only journal the tiled flow
// uses for crash recovery: each completed tile is written as one
// length-prefixed, CRC32-guarded record, so a run that dies at tile
// 9,999 of 10,000 resumes from the journal instead of restarting from
// zero.
//
// The format is deliberately dumb — built for torn tails, not queries:
//
//	magic "CFCKPT1\n"
//	header record   (opaque fingerprint bytes supplied by the caller)
//	tile record *   (opaque payload bytes, typically a gob blob)
//
// where every record is one iox frame (length | CRC32 | payload).
//
// A process killed mid-append leaves a short or corrupt final record;
// Open tolerates exactly that failure mode: it replays every valid
// record, truncates the file back to the last valid boundary, and
// appends from there. Any earlier corruption (a bad CRC followed by
// more data) is reported as an error rather than silently skipped —
// mid-file damage is disk rot, not a torn write.
//
// The header fingerprint binds a journal to one (layout, tiling
// config) pair: Open fails with ErrHeaderMismatch when the stored
// fingerprint differs from the caller's, so a stale journal can never
// leak tiles into a different run.
//
// A Journal that sees a write or sync error poisons itself: every
// later Append/Sync returns ErrPoisoned wrapping the original cause.
// In particular a failed fsync is never retried on the same fd — after
// fsync reports failure the kernel may already have dropped the dirty
// pages, so a succeeding retry proves nothing (the fsyncgate bug
// class). Callers decide the policy: the flow degrades the run to
// un-resumable-but-correct, the daemon fails the job before any
// subscriber observes the event.
package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"cfaopc/internal/iox"
)

var magic = []byte("CFCKPT1\n")

// ErrHeaderMismatch means the journal on disk was written for a
// different run (layout or tiling config changed). The caller should
// delete or relocate the file.
var ErrHeaderMismatch = errors.New("checkpoint: journal header does not match this run")

// ErrPoisoned means an earlier Append or Sync on this journal failed;
// the journal refuses further writes because durability can no longer
// be promised on this fd. Unwrap for the original storage error.
var ErrPoisoned = errors.New("checkpoint: journal poisoned by earlier write error")

// MaxRecordBytes bounds one record's payload; it exists so a corrupt
// length prefix cannot demand an absurd allocation during replay.
const MaxRecordBytes = 64 << 20

// Journal is an open checkpoint file positioned for appends. Append is
// safe for concurrent use; the worker pool writes records as tiles
// complete, in whatever order they finish.
type Journal struct {
	mu       sync.Mutex
	f        iox.File
	size     int64 // bytes through the last attempted append
	poisoned error // first write/sync failure; sticky
}

// Open opens (or creates) the journal at path on the real filesystem.
func Open(path string, header []byte) (*Journal, [][]byte, error) {
	return OpenFS(nil, path, header)
}

// OpenFS is Open through an explicit filesystem seam (nil = the real
// filesystem). The caller's header fingerprint is written to a fresh
// journal and verified against an existing one. Valid tile payloads
// already on disk are returned in append order; a torn final record is
// discarded and the file is truncated to the last valid boundary so
// subsequent appends start clean.
func OpenFS(fsys iox.FS, path string, header []byte) (*Journal, [][]byte, error) {
	fsys = iox.OrOS(fsys)
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if st.Size() == 0 {
		return startFresh(f, header)
	}

	payloads, validOff, err := replay(f, header, path)
	if errors.Is(err, errNoHeader) {
		// The creating process died between writing the magic and the
		// header record; nothing was journaled, so restart the file.
		if terr := f.Truncate(0); terr != nil {
			f.Close()
			return nil, nil, terr
		}
		if _, serr := f.Seek(0, io.SeekStart); serr != nil {
			f.Close()
			return nil, nil, serr
		}
		return startFresh(f, header)
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Drop the torn tail (if any) and position for appends.
	if err := f.Truncate(validOff); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(validOff, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Journal{f: f, size: validOff}, payloads, nil
}

// startFresh writes magic + header record to an empty file.
func startFresh(f iox.File, header []byte) (*Journal, [][]byte, error) {
	if _, err := f.Write(magic); err != nil {
		f.Close()
		return nil, nil, err
	}
	j := &Journal{f: f, size: int64(len(magic))}
	if err := j.Append(header); err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, nil, nil
}

// replay reads magic, the header record and every tile record, stopping
// at the first torn (truncated) record. It verifies the header against
// the caller's (ErrHeaderMismatch, naming path) — or, when want is nil,
// returns it as the first payload — and returns the tile payloads in
// file order and the offset just past the last valid record.
// A record that is fully present but fails its CRC while more records
// follow is mid-file corruption and is returned as an error.
func replay(f iox.File, want []byte, path string) (payloads [][]byte, validOff int64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	m := make([]byte, len(magic))
	n, err := io.ReadFull(f, m)
	if err != nil && bytes.Equal(m[:n], magic[:n]) {
		// The whole file is a strict prefix of the magic: a crash tore
		// the very first write, so the journal never finished being
		// born. Report it like a torn header and let Open restart the
		// file — this is a birth crash, not foreign data.
		return nil, 0, errNoHeader
	}
	if err != nil || !bytes.Equal(m, magic) {
		return nil, 0, fmt.Errorf("checkpoint: not a journal (bad magic)")
	}
	off := int64(len(magic))
	first := true
	for {
		payload, n, rerr := readRecord(f)
		if rerr == io.EOF {
			break // clean end of journal
		}
		if rerr != nil {
			if errors.Is(rerr, iox.ErrTornFrame) {
				// Torn tail: everything before it stands. A torn
				// *header* means the journal never finished being born;
				// Open restarts such a file.
				if first {
					return nil, 0, errNoHeader
				}
				break
			}
			return nil, 0, rerr
		}
		if !first || want == nil {
			payloads = append(payloads, payload)
		} else if !bytes.Equal(payload, want) {
			return nil, 0, fmt.Errorf("%w (path %s)", ErrHeaderMismatch, path)
		}
		first = false
		off += n
	}
	if first {
		return nil, 0, errNoHeader
	}
	return payloads, off, nil
}

// errNoHeader marks a journal whose header record never made it to disk.
var errNoHeader = errors.New("checkpoint: journal has no valid header")

// readRecord decodes one record (an iox frame) at the current offset.
// io.EOF at a record boundary is a clean end and a short header/payload
// is torn, as the frame reader reports them. On top of it sits the one
// distinction only a journal can make: a CRC mismatch is torn when it is
// the final record, mid-file corruption otherwise.
func readRecord(f iox.File) (payload []byte, n int64, err error) {
	payload, err = iox.ReadFrame(f, MaxRecordBytes)
	if errors.Is(err, iox.ErrFrameCRC) {
		// Peek one byte ahead: nothing after the damaged record means a
		// write cut short, anything means disk rot.
		var b [1]byte
		if _, perr := f.Read(b[:]); perr == io.EOF {
			return nil, 0, iox.ErrTornFrame
		}
		return nil, 0, fmt.Errorf("checkpoint: mid-journal CRC mismatch")
	}
	if err != nil {
		return nil, 0, err
	}
	return payload, 8 + int64(len(payload)), nil
}

// Append writes one payload as a length-prefixed, CRC-guarded record.
// Safe for concurrent use. The write is buffered by the OS, not
// fsynced; call Sync for a durability barrier. A failed Append — a
// write error, or a payload over MaxRecordBytes — poisons the journal:
// this and all later Appends fail, and the on-disk tail is whatever
// prefix landed (a torn record the next Open truncates).
func (j *Journal) Append(payload []byte) error {
	rec, err := iox.AppendFrame(nil, payload, MaxRecordBytes)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.poisoned != nil {
		return fmt.Errorf("%w: %v", ErrPoisoned, j.poisoned)
	}
	if err == nil {
		var n int
		n, err = j.f.Write(rec)
		j.size += int64(n)
	}
	if err != nil {
		j.poisoned = err
	}
	return err
}

// Sync flushes to stable storage every Append that returned before it
// was called — nothing that runs beside it; a group committer counts its
// batch first — with the fsync outside the journal lock, so Append, Size
// and Err never wait on the disk. A sync error poisons the journal: the
// failed fsync is never retried on this fd, because the kernel may have
// dropped the dirty pages and a later success would be a false claim.
func (j *Journal) Sync() error {
	j.mu.Lock()
	f, poisoned := j.f, j.poisoned
	j.mu.Unlock()
	if poisoned != nil {
		return fmt.Errorf("%w: %v", ErrPoisoned, poisoned)
	}
	err := f.Sync()
	if err != nil {
		j.mu.Lock()
		if j.poisoned == nil {
			j.poisoned = err
		}
		j.mu.Unlock()
	}
	return err
}

// Size returns the journal's byte size through the last attempted
// append (magic and header included).
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Err returns the first write/sync failure that poisoned the journal,
// or nil while the journal is healthy.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.poisoned
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
