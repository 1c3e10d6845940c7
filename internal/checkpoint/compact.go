package checkpoint

import "cfaopc/internal/iox"

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
// The rewrite goes through iox.AtomicWrite (temp file + fsync + rename +
// parent-dir fsync), so a crash at any instant leaves either the
// original journal or the durable compacted one; a torn tail on the
// input is dropped exactly as Open would drop it. The compacted journal
// is assembled in memory beside the replayed payloads it is made of.
func CompactFS(fsys iox.FS, path string, header []byte, keyOf func(payload []byte) (string, error)) (CompactStats, error) {
	fsys = iox.OrOS(fsys)
	var stats CompactStats
	f, err := fsys.Open(path)
	if err != nil {
		return stats, err
	}
	payloads, validOff, err := replay(f, header, path)
	f.Close()
	if err != nil {
		return stats, err
	}
	stats.BytesBefore = validOff

	// Last record per key wins; survivors keep the order in which their
	// key first appeared, which preserves the original append order for
	// the common no-duplicates case.
	last := make(map[string]int, len(payloads))
	var order []string
	for i, p := range payloads {
		k, kerr := keyOf(p)
		if kerr != nil {
			return stats, kerr
		}
		if _, seen := last[k]; !seen {
			order = append(order, k)
		}
		last[k] = i
	}

	data := append([]byte(nil), magic...)
	if data, err = iox.AppendFrame(data, header, MaxRecordBytes); err != nil {
		return stats, err
	}
	for _, k := range order {
		if data, err = iox.AppendFrame(data, payloads[last[k]], MaxRecordBytes); err != nil {
			return stats, err
		}
	}
	if err := iox.AtomicWrite(fsys, path, data, 0o644); err != nil {
		return stats, err
	}
	stats.Kept = len(order)
	stats.Dropped = len(payloads) - len(order)
	stats.BytesAfter = int64(len(data))
	return stats, nil
}
