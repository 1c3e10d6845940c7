package checkpoint

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"cfaopc/internal/iox"
)

// CompactStats reports what a Compact pass did.
type CompactStats struct {
	Kept        int   // records surviving into the compacted journal
	Dropped     int   // superseded records removed
	BytesBefore int64 // journal size before, including magic and header
	BytesAfter  int64
}

// CompactFS rewrites the journal at path keeping only the LAST record
// for each key, in first-appearance order of the surviving keys. keyOf
// maps a record payload to its supersession key (e.g. the tile index,
// so a tile's completion record supersedes its partial-progress
// snapshots); a keyOf error aborts the pass with the original journal
// untouched.
//
// Replay semantics are last-record-wins per key, so resuming from the
// compacted journal is byte-identical to resuming from the original.
// The rewrite goes through a temp file + fsync + rename + parent-dir
// fsync, so a crash at any instant leaves either the original journal
// or the durable compacted one; a torn tail on the input is dropped
// exactly as Open would drop it.
func CompactFS(fsys iox.FS, path string, header []byte, keyOf func(payload []byte) (string, error)) (CompactStats, error) {
	fsys = iox.OrOS(fsys)
	var stats CompactStats
	f, err := fsys.Open(path)
	if err != nil {
		return stats, err
	}
	gotHeader, payloads, validOff, err := replay(f)
	f.Close()
	if err != nil {
		return stats, err
	}
	if !bytes.Equal(gotHeader, header) {
		return stats, fmt.Errorf("%w (path %s)", ErrHeaderMismatch, path)
	}
	stats.BytesBefore = validOff

	// Last record per key wins; survivors keep the order in which their
	// key first appeared, which preserves the original append order for
	// the common no-duplicates case.
	last := make(map[string]int, len(payloads))
	var order []string
	keys := make([]string, len(payloads))
	for i, p := range payloads {
		k, kerr := keyOf(p)
		if kerr != nil {
			return stats, kerr
		}
		keys[i] = k
		if _, seen := last[k]; !seen {
			order = append(order, k)
		}
		last[k] = i
	}

	tmp := path + ".compact.tmp"
	out, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return stats, err
	}
	cleanup := func() { out.Close(); fsys.Remove(tmp) }
	if _, err := out.Write(magic); err != nil {
		cleanup()
		return stats, err
	}
	j := &Journal{f: out}
	if err := j.Append(header); err != nil {
		cleanup()
		return stats, err
	}
	for _, k := range order {
		if err := j.Append(payloads[last[k]]); err != nil {
			cleanup()
			return stats, err
		}
	}
	if err := out.Sync(); err != nil {
		cleanup()
		return stats, err
	}
	st, err := out.Stat()
	if err != nil {
		cleanup()
		return stats, err
	}
	if err := out.Close(); err != nil {
		fsys.Remove(tmp)
		return stats, err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return stats, err
	}
	// The rename replaced a directory entry; without syncing the parent
	// a crash can resurrect the pre-compaction journal with the temp
	// file gone — still correct, but the compaction silently lost.
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return stats, err
	}
	stats.Kept = len(order)
	stats.Dropped = len(payloads) - len(order)
	stats.BytesAfter = st.Size()
	return stats, nil
}
